package carbon

import (
	"time"

	"caribou/internal/simclock"
)

// MarginalSource derives a synthetic marginal-carbon-intensity (MCI)
// signal from an average-intensity (ACI) source. The paper uses ACI
// because MCI signals are highly uncertain and hard to verify (§7.1), but
// notes that MCI can lead to different scheduling decisions — this source
// exists to study exactly that sensitivity.
//
// The model captures the two qualitative properties the literature
// reports: the marginal generator is usually a dispatchable fossil unit,
// so MCI sits far above ACI on clean grids and is only weakly coupled to
// the ACI level; and MCI is much noisier hour to hour.
type MarginalSource struct {
	base Source
	seed int64
}

// NewMarginalSource wraps an ACI source.
func NewMarginalSource(base Source, seed int64) *MarginalSource {
	return &MarginalSource{base: base, seed: seed}
}

// MCI model constants: the marginal fossil fleet spans roughly
// combined-cycle gas (~400 gCO2eq/kWh) to coal (~900).
const (
	mciFossilBase  = 480.0
	mciACICoupling = 0.35
	mciNoiseAmp    = 160.0
	mciFloor       = 300.0
	mciCeil        = 950.0
)

// At returns the synthetic marginal intensity for the zone-hour. The
// noise realization is a stable hash of (seed, zone, hour), so the signal
// is deterministic and uncorrelated across hours.
func (m *MarginalSource) At(zone string, t time.Time) (float64, error) {
	aci, err := m.base.At(zone, t)
	if err != nil {
		return 0, err
	}
	hour := t.UTC().Truncate(time.Hour).Unix()
	rng := simclock.DeriveRand(m.seed, "mci/"+zone+"/"+itoa(hour))
	v := mciFossilBase + mciACICoupling*aci + rng.Uniform(-1, 1)*mciNoiseAmp
	if v < mciFloor {
		v = mciFloor
	}
	if v > mciCeil {
		v = mciCeil
	}
	return v, nil
}

// Hourly implements Source: the marginal series for [from, to), so the
// Metric Manager's forecasters train on MCI as they do on averages.
func (m *MarginalSource) Hourly(zone string, from, to time.Time) ([]float64, error) {
	var out []float64
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		v, err := m.At(zone, t)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// itoa converts without fmt to keep the hot path allocation-light.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
