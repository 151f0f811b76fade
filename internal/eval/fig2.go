package eval

import (
	"fmt"
	"io"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/region"
)

// Fig 2: hourly grid carbon intensity of the four evaluated AWS regions
// from July 2023 to January 2024, with two week-long zoom windows.

// Fig2Series is one region's trace at the requested resolution.
type Fig2Series struct {
	Region region.ID
	Times  []time.Time
	Values []float64
}

// Fig2Options selects window and resolution.
type Fig2Options struct {
	From, To time.Time
	// StepHours downsamples the hourly trace (1 = hourly).
	StepHours int
	Seed      int64
}

// Fig2 synthesizes the traces. Defaults cover 2023-07-01 .. 2024-01-31
// at daily resolution, matching the figure's span.
func Fig2(opt Fig2Options) ([]Fig2Series, error) {
	if opt.From.IsZero() {
		opt.From = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	}
	if opt.To.IsZero() {
		opt.To = time.Date(2024, 1, 31, 0, 0, 0, 0, time.UTC)
	}
	if opt.StepHours <= 0 {
		opt.StepHours = 24
	}
	if opt.Seed == 0 {
		opt.Seed = 17
	}
	src, err := carbon.NewSyntheticSource(opt.Seed, opt.From, opt.To)
	if err != nil {
		return nil, err
	}
	cat := region.NorthAmerica()
	var out []Fig2Series
	for _, id := range region.EvaluationFour() {
		r, _ := cat.Get(id)
		s := Fig2Series{Region: id}
		for t := opt.From; t.Before(opt.To); t = t.Add(time.Duration(opt.StepHours) * time.Hour) {
			v, err := src.At(r.GridZone, t)
			if err != nil {
				return nil, err
			}
			s.Times = append(s.Times, t)
			s.Values = append(s.Values, v)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig2Stats verifies the calibration targets the paper reports for the
// evaluation window: returns each region's average intensity and its
// ratio to us-east-1.
func Fig2Stats(seed int64) (map[region.ID]float64, error) {
	from := EvalStart
	to := EvalStart.Add(7 * 24 * time.Hour)
	src, err := carbon.NewSyntheticSource(seed, from, to)
	if err != nil {
		return nil, err
	}
	cat := region.NorthAmerica()
	out := map[region.ID]float64{}
	for _, id := range region.EvaluationFour() {
		r, _ := cat.Get(id)
		avg, err := src.Average(r.GridZone, from, to)
		if err != nil {
			return nil, err
		}
		out[id] = avg
	}
	return out, nil
}

// PrintFig2 renders the series compactly (one row per sample step, one
// column per region).
func PrintFig2(w io.Writer, series []Fig2Series) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "Fig 2 — grid carbon intensity (gCO2eq/kWh)\n%-18s", "time")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", string(s.Region)[4:])
	}
	fmt.Fprintln(w)
	for i := range series[0].Times {
		fmt.Fprintf(w, "%-18s", series[0].Times[i].Format("2006-01-02 15:04"))
		for _, s := range series {
			fmt.Fprintf(w, " %14.1f", s.Values[i])
		}
		fmt.Fprintln(w)
	}
}
