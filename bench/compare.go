package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// loadSet reads a set file and groups its untraced runs' end-to-end values
// by workload and metric.
func loadSet(path string) (map[string]map[string][]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []setEntry
	if err := json.Unmarshal(blob, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, e := range set {
		if e.Meta.Trace {
			continue
		}
		if out[e.Meta.Workload] == nil {
			out[e.Meta.Workload] = map[string][]float64{}
		}
		for name, v := range e.Result.Metrics {
			out[e.Meta.Workload][name] = append(out[e.Meta.Workload][name], v.Value)
		}
	}
	return out, nil
}

// spread is the distance between the quartiles as a share of the median,
// the driver's measure of run-to-run variation (0 for fewer than two runs).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareSets prints, for every pairing of end-to-end metric and workload,
// both medians, how much worse b is than a as a share of a's median, both
// spreads and the bound, and a verdict. A pair whose spread on either side
// exceeds the bound is unresolved, whatever the medians say: runs that vary
// by more than the bound cannot show a change smaller than it.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian a\tmedian b\tworse by\tspread a\tspread b\tbound\truns\tverdict")
	for _, wl := range allWorkloads {
		for _, d := range endToEnd {
			xa, xb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.2f\t%d/%d\tmissing\n", wl.name, d.Name, d.Unit, d.Bound, len(xa), len(xb))
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "unchanged"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.3f\t%.3f\t%.3f\t%.2f\t%d/%d\t%s\n",
				wl.name, d.Name, d.Unit, ma, mb, worse, sa, sb, d.Bound, len(xa), len(xb), verdict)
		}
	}
	return tw.Flush()
}
