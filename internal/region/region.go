// Package region defines the cloud region catalogue used across Caribou:
// geography, provider metadata, relative performance, and compliance
// attributes. The catalogue covers the six public North American AWS
// regions evaluated in the paper.
package region

import (
	"fmt"
	"math"
	"sort"
)

// ID names a cloud region, e.g. "aws:us-east-1". The provider prefix keeps
// the catalogue open to multi-cloud extensions even though the evaluation,
// like the paper's, runs on a single provider.
type ID string

// Region describes one deployable cloud region.
type Region struct {
	ID       ID
	Provider string
	Country  string // ISO 3166-1 alpha-2, drives data-residency compliance
	Lat      float64
	Lon      float64
	// PerfFactor scales function execution time relative to the home
	// region's hardware generation (1.0 = identical). The paper observes
	// small cross-region execution-time differences (§9.3).
	PerfFactor float64
	// GridZone names the electrical grid the datacenter draws from;
	// regions on the same grid share a carbon-intensity trace
	// (us-east-1 and us-east-2 per §2.1).
	GridZone string
}

// Catalogue is an immutable set of regions indexed by ID.
type Catalogue struct {
	byID  map[ID]*Region
	order []ID
}

// NewCatalogue builds a catalogue from the given regions. Duplicate IDs are
// an error.
func NewCatalogue(regions []Region) (*Catalogue, error) {
	c := &Catalogue{byID: make(map[ID]*Region, len(regions))}
	for i := range regions {
		r := regions[i]
		if r.ID == "" {
			return nil, fmt.Errorf("region: empty region ID at index %d", i)
		}
		if _, dup := c.byID[r.ID]; dup {
			return nil, fmt.Errorf("region: duplicate region %q", r.ID)
		}
		if r.PerfFactor <= 0 {
			r.PerfFactor = 1.0
		}
		rr := r
		c.byID[r.ID] = &rr
		c.order = append(c.order, r.ID)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	return c, nil
}

// Get returns the region with the given ID.
func (c *Catalogue) Get(id ID) (*Region, bool) {
	r, ok := c.byID[id]
	return r, ok
}

// IDs returns all region IDs in stable (sorted) order.
func (c *Catalogue) IDs() []ID { return append([]ID(nil), c.order...) }

// Len reports the number of regions.
func (c *Catalogue) Len() int { return len(c.order) }

// Subset returns a catalogue restricted to the given IDs, erroring on
// unknown regions.
func (c *Catalogue) Subset(ids []ID) (*Catalogue, error) {
	regions := make([]Region, 0, len(ids))
	for _, id := range ids {
		r, ok := c.byID[id]
		if !ok {
			return nil, fmt.Errorf("region: unknown region %q", id)
		}
		regions = append(regions, *r)
	}
	return NewCatalogue(regions)
}

// DistanceKm returns the great-circle distance between two regions.
func DistanceKm(a, b *Region) float64 {
	const earthRadiusKm = 6371.0
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(s))
}

// North American AWS region IDs used throughout the evaluation.
const (
	USEast1    ID = "aws:us-east-1"
	USEast2    ID = "aws:us-east-2"
	USWest1    ID = "aws:us-west-1"
	USWest2    ID = "aws:us-west-2"
	CACentral1 ID = "aws:ca-central-1"
	CAWest1    ID = "aws:ca-west-1"
)

// NorthAmerica returns the catalogue of the six public NA AWS regions.
// Performance factors reflect the small cross-region execution-time
// variation the paper attributes to hardware and co-tenancy differences.
func NorthAmerica() *Catalogue {
	c, err := NewCatalogue([]Region{
		{ID: USEast1, Provider: "aws", Country: "US", Lat: 38.95, Lon: -77.45, PerfFactor: 1.00, GridZone: "US-MIDA-PJM"},  // N. Virginia
		{ID: USEast2, Provider: "aws", Country: "US", Lat: 40.10, Lon: -82.75, PerfFactor: 1.01, GridZone: "US-MIDA-PJM"},  // Ohio
		{ID: USWest1, Provider: "aws", Country: "US", Lat: 37.35, Lon: -121.96, PerfFactor: 1.02, GridZone: "US-CAL-CISO"}, // N. California
		{ID: USWest2, Provider: "aws", Country: "US", Lat: 45.84, Lon: -119.70, PerfFactor: 1.00, GridZone: "US-NW-PACW"},  // Oregon
		{ID: CACentral1, Provider: "aws", Country: "CA", Lat: 45.50, Lon: -73.57, PerfFactor: 1.01, GridZone: "CA-QC"},     // Montreal
		{ID: CAWest1, Provider: "aws", Country: "CA", Lat: 51.05, Lon: -114.07, PerfFactor: 1.02, GridZone: "CA-AB"},       // Calgary
	})
	if err != nil {
		panic(err) // static data, cannot fail
	}
	return c
}

// EvaluationFour returns the four-region subset the paper's evaluation
// focuses on (§9.1): us-east-1, us-west-1, us-west-2, ca-central-1.
func EvaluationFour() []ID {
	return []ID{USEast1, USWest1, USWest2, CACentral1}
}

// Global AWS region IDs beyond North America, used by the global-shifting
// extension experiment (§2.1 notes the observations are even more
// pronounced globally: more diverse energy mixes, full daily solar lag,
// and opposite seasons across hemispheres).
const (
	EUWest1      ID = "aws:eu-west-1"      // Ireland
	EUCentral1   ID = "aws:eu-central-1"   // Frankfurt
	EUNorth1     ID = "aws:eu-north-1"     // Stockholm
	APNortheast1 ID = "aws:ap-northeast-1" // Tokyo
	APSoutheast2 ID = "aws:ap-southeast-2" // Sydney
	SAEast1      ID = "aws:sa-east-1"      // São Paulo
)

// Global returns the North American catalogue extended with six regions
// across Europe, Asia-Pacific, and South America.
func Global() *Catalogue {
	na := NorthAmerica()
	regions := make([]Region, 0, na.Len()+6)
	for _, id := range na.IDs() {
		r, _ := na.Get(id)
		regions = append(regions, *r)
	}
	regions = append(regions,
		Region{ID: EUWest1, Provider: "aws", Country: "IE", Lat: 53.35, Lon: -6.26, PerfFactor: 1.01, GridZone: "IE"},            // Ireland
		Region{ID: EUCentral1, Provider: "aws", Country: "DE", Lat: 50.11, Lon: 8.68, PerfFactor: 1.01, GridZone: "DE"},          // Frankfurt
		Region{ID: EUNorth1, Provider: "aws", Country: "SE", Lat: 59.33, Lon: 18.07, PerfFactor: 1.02, GridZone: "SE"},           // Stockholm
		Region{ID: APNortheast1, Provider: "aws", Country: "JP", Lat: 35.68, Lon: 139.69, PerfFactor: 1.02, GridZone: "JP-TK"},   // Tokyo
		Region{ID: APSoutheast2, Provider: "aws", Country: "AU", Lat: -33.87, Lon: 151.21, PerfFactor: 1.02, GridZone: "AU-NSW"}, // Sydney
		Region{ID: SAEast1, Provider: "aws", Country: "BR", Lat: -23.55, Lon: -46.63, PerfFactor: 1.03, GridZone: "BR-CS"},       // São Paulo
	)
	c, err := NewCatalogue(regions)
	if err != nil {
		panic(err) // static data, cannot fail
	}
	return c
}
