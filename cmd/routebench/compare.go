package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the compare mode reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRecords(path string) ([]record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(blob, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the exclusive method (Python's
// statistics.quantiles(xs, n=4)), so spreads read the same as there.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := (n + 1) * k // position j/4, one-based
		i, frac := j/4, float64(j%4)/4
		if i < 1 {
			i, frac = 1, 0
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

// verdict compares side b against side a for one metric. A spread
// (interquartile range over median) wider than the bound on either
// side leaves the comparison unresolved, unless every run of one side
// beats every run of the other.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	delta := (mb - ma) / ma
	gain := -delta
	if !lowerBetter {
		gain = delta
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	bAllBetter := (lowerBetter && sb[len(sb)-1] < sa[0]) || (!lowerBetter && sb[0] > sa[len(sa)-1])
	bAllWorse := (lowerBetter && sb[0] > sa[len(sa)-1]) || (!lowerBetter && sb[len(sb)-1] < sa[0])
	spread := math.Max((qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb))
	switch {
	case spread > bound && bAllBetter:
		return "better", delta
	case spread > bound && bAllWorse:
		return "worse", delta
	case spread > bound:
		return "unresolved", delta
	case gain < -bound:
		return "worse", delta
	case gain > bound:
		return "better", delta
	default:
		return "no change", delta
	}
}

// compareFiles folds each side's repeated runs per workload and prints
// one row per end-to-end metric × workload.
func compareFiles(specPath, aPath, bPath string, out io.Writer) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(aPath)
	if err != nil {
		return err
	}
	b, err := loadRecords(bPath)
	if err != nil {
		return err
	}
	fold := func(recs []record) map[string]map[string][]float64 {
		m := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace != 0 || !r.Correct {
				continue
			}
			if m[r.Workload] == nil {
				m[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				m[r.Workload][k] = append(m[r.Workload][k], v.Value)
			}
		}
		return m
	}
	fa, fb := fold(a), fold(b)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-22s %-18s %-9s %24s %24s %8s %6s  %s\n", "workload", "metric", "unit", "A median [q1,q3]", "B median [q1,q3]", "delta", "bound", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			va, vb := fa[wl][m.Name], fb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-22s %-18s %-9s %24s %24s %8s %6.3f  missing (A %d runs, B %d runs)\n", wl, m.Name, m.Unit, "-", "-", "-", m.Bound, len(va), len(vb))
				continue
			}
			v, delta := verdict(va, vb, m.Better == "lower", m.Bound)
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			fmt.Fprintf(out, "%-22s %-18s %-9s %24s %24s %+7.1f%% %6.3f  %s\n", wl, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g,%.4g]", ma, qa1, qa3), fmt.Sprintf("%.4g [%.4g,%.4g]", mb, qb1, qb3), 100*delta, m.Bound, v)
		}
	}
	return nil
}
