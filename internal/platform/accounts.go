package platform

import (
	"fmt"
	"slices"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/pricing"
	"caribou/internal/region"
)

// Accounts prices invocation records against one carbon source, region
// catalogue and price book. It resolves each distinct region once — its
// price row when first seen, and catalogue entry → grid zone → hourly trace
// when first accounted for carbon — and every later event in that region
// reuses the row, where asking the catalogue, the source and the book per
// event costs three map lookups each time. Sums keep the per-event operand
// order of those calls, so the results are bit-equal to them. An Accounts
// is not safe for concurrent use: build one per accounting pass.
type Accounts struct {
	src  carbon.Source
	cat  *region.Catalogue
	book *pricing.Book
	// zones is src's resolve-once view; nil for a source without one, which
	// is then asked per event by zone name.
	zones zoneResolver
	rows  []accountRow
	keys  []region.ID // sortedKeys scratch
}

// zoneResolver is the part of carbon.SyntheticSource that hands out a
// zone's trace once instead of looking the zone up per event.
type zoneResolver interface {
	Zone(zone string) (carbon.ZoneTrace, error)
}

// accountRow is what Accounts knows about one region.
type accountRow struct {
	id     region.ID
	prices pricing.RegionPrices
	zoned  bool // zone (and trace, with a.zones) resolved
	zone   string
	trace  carbon.ZoneTrace
}

// NewAccounts returns an empty Accounts. CarbonGrams needs src and cat,
// CostUSD needs book; a caller using one of the two may leave the other's
// inputs nil.
func NewAccounts(src carbon.Source, cat *region.Catalogue, book *pricing.Book) *Accounts {
	a := &Accounts{src: src, cat: cat, book: book}
	a.zones, _ = src.(zoneResolver)
	return a
}

// row returns the index of id's row, adding it on first sight. Runs touch
// a handful of regions, so a scan beats hashing the name.
func (a *Accounts) row(id region.ID) int {
	for i := range a.rows {
		if a.rows[i].id == id {
			return i
		}
	}
	row := accountRow{id: id}
	if a.book != nil {
		row.prices = a.book.Prices(id)
	}
	a.rows = append(a.rows, row)
	return len(a.rows) - 1
}

// zoneRow is row with the region's grid zone resolved; a region the
// catalogue does not know is an error each time it is seen.
func (a *Accounts) zoneRow(id region.ID) (int, error) {
	i := a.row(id)
	row := &a.rows[i]
	if row.zoned {
		return i, nil
	}
	reg, ok := a.cat.Get(id)
	if !ok {
		return 0, fmt.Errorf("platform: unknown region %q in record", id)
	}
	row.zone = reg.GridZone
	if a.zones != nil {
		tr, err := a.zones.Zone(row.zone)
		if err != nil {
			return 0, err
		}
		row.trace = tr
	}
	row.zoned = true
	return i, nil
}

// intensity is the grid intensity of zone-resolved row i at t.
func (a *Accounts) intensity(i int, t time.Time) (float64, error) {
	if a.zones != nil {
		return a.rows[i].trace.At(t)
	}
	return a.src.At(a.rows[i].zone, t)
}

// CarbonGrams is InvocationRecord.CarbonGrams over the resolved rows.
func (a *Accounts) CarbonGrams(r *InvocationRecord, tx carbon.TransmissionModel) (execG, txG float64, err error) {
	for i := range r.Executions {
		e := &r.Executions[i]
		row, zerr := a.zoneRow(e.Region)
		if zerr != nil {
			return 0, 0, zerr
		}
		intensity, ierr := a.intensity(row, e.Start)
		if ierr != nil {
			return 0, 0, ierr
		}
		execG += carbon.ExecutionCarbon(intensity, e.MemoryMB, e.DurationSec, e.CPUUtil)
	}
	for i := range r.Transfers {
		t := &r.Transfers[i]
		from, zerr := a.zoneRow(t.From)
		if zerr != nil {
			return 0, 0, zerr
		}
		to, zerr := a.zoneRow(t.To)
		if zerr != nil {
			return 0, 0, zerr
		}
		fi, ierr := a.intensity(from, t.At)
		if ierr != nil {
			return 0, 0, ierr
		}
		ti, ierr := a.intensity(to, t.At)
		if ierr != nil {
			return 0, 0, ierr
		}
		txG += tx.Carbon(fi, ti, from == to, t.Bytes)
	}
	return execG, txG, nil
}

// CostUSD is InvocationRecord.CostUSD over the resolved rows.
func (a *Accounts) CostUSD(r *InvocationRecord) float64 {
	var c float64
	for i := range r.Executions {
		e := &r.Executions[i]
		c += a.rows[a.row(e.Region)].prices.ExecutionCost(e.MemoryMB, e.DurationSec)
	}
	// Sorted region order keeps the floating-point sum independent of map
	// iteration order.
	for _, reg := range a.sortedKeys(r.Services.SNSPublishes) {
		c += a.rows[a.row(reg)].prices.SNSCost(r.Services.SNSPublishes[reg])
	}
	for _, reg := range a.sortedKeys(r.Services.KVReads) {
		c += a.rows[a.row(reg)].prices.DynamoCost(r.Services.KVReads[reg], 0)
	}
	for _, reg := range a.sortedKeys(r.Services.KVWrites) {
		c += a.rows[a.row(reg)].prices.DynamoCost(0, r.Services.KVWrites[reg])
	}
	for i := range r.Transfers {
		t := &r.Transfers[i]
		c += a.book.EgressCost(t.From, t.To, t.Bytes)
	}
	return c
}

// sortedKeys returns m's keys in sorted order, in scratch the next call
// reuses.
func (a *Accounts) sortedKeys(m map[region.ID]int) []region.ID {
	if len(m) == 0 {
		return nil
	}
	keys := a.keys[:0]
	for reg := range m {
		keys = append(keys, reg)
	}
	slices.Sort(keys)
	a.keys = keys
	return keys
}
