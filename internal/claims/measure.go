package claims

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"telepresence/internal/stats"
)

// Measure reads an entry's values from rows. A measure that cannot read
// its rows panics with a readError, or with notRun when an experiment is
// absent; evaluate recovers both.
type Measure func(Rows) []float64

type (
	readError struct{ error }
	notRun    string
)

func unreadable(format string, args ...any) { panic(readError{fmt.Errorf(format, args...)}) }

// rows returns exp's rows whose key field equals one of vals (float64 for
// numbers), or all of them when key is empty.
func (rs Rows) rows(exp, key string, vals []any) (out []map[string]any) {
	all, ok := rs[exp]
	if !ok {
		panic(notRun(exp))
	}
	for _, r := range all {
		if key == "" || slices.Contains(vals, field(exp, r, key)) {
			out = append(out, r)
		}
	}
	return out
}

// field resolves a dotted path ("Box.Mean") in one of exp's rows to a
// number, string, boolean or null, so fields compare with ==.
func field(exp string, r map[string]any, path string) any {
	var v any = r
	for _, name := range strings.Split(path, ".") {
		obj, _ := v.(map[string]any)
		var ok bool
		if v, ok = obj[name]; !ok {
			unreadable("%s: no field %s", exp, path)
		}
	}
	switch v.(type) {
	case map[string]any, []any:
		unreadable("%s: field %s is not a scalar", exp, path)
	}
	return v
}

// col reads numeric field path of every row of exp.
func col(exp, path string) Measure { return where(exp, path, "") }

// where reads numeric field path ("Box.Mean" for nested objects) of exp's
// rows whose key field equals one of vals, booleans as 0 and 1; at least
// one row must match.
func where(exp, path, key string, vals ...any) Measure {
	return func(rs Rows) (out []float64) {
		for _, r := range rs.rows(exp, key, vals) {
			switch v := field(exp, r, path).(type) {
			case float64:
				out = append(out, v)
			case bool:
				out = append(out, 0)
				if v {
					out[len(out)-1] = 1
				}
			default:
				unreadable("%s: field %s is %T, not a number", exp, path, v)
			}
		}
		if len(out) == 0 {
			unreadable("%s: no row with %s in %v", exp, key, vals)
		}
		return out
	}
}

// count is the number of exp's rows whose key field equals one of vals
// (all rows when key is empty); zero is a value.
func count(exp, key string, vals ...any) Measure {
	return func(rs Rows) []float64 { return []float64{float64(len(rs.rows(exp, key, vals)))} }
}

// distinct is the number of distinct values of field path in exp's rows.
func distinct(exp, path string) Measure {
	return func(rs Rows) []float64 {
		seen := map[any]bool{}
		for _, r := range rs.rows(exp, "", nil) {
			seen[field(exp, r, path)] = true
		}
		return []float64{float64(len(seen))}
	}
}

// Statistics of a measure's values.
var maxOf, meanOf, stdOf = statOf((*stats.Sample).Max), statOf((*stats.Sample).Mean), statOf((*stats.Sample).Std)

func statOf(f func(*stats.Sample) float64) func(Measure) Measure {
	return func(m Measure) Measure {
		return func(rs Rows) []float64 { return []float64{f(stats.NewSample(m(rs)...))} }
	}
}

// zip combines a and b value by value with f. A side with one value pairs
// with every value of the other; otherwise the sides have as many values.
func zip(a, b Measure, f func(x, y float64) float64) Measure {
	return func(rs Rows) []float64 {
		xs, ys := a(rs), b(rs)
		n := max(len(xs), len(ys))
		if len(xs) != n && len(xs) != 1 || len(ys) != n && len(ys) != 1 {
			unreadable("cannot pair %d values with %d", len(xs), len(ys))
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = f(xs[min(i, len(xs)-1)], ys[min(i, len(ys)-1)])
		}
		return out
	}
}

func sub(x, y float64) float64     { return x - y }
func div(x, y float64) float64     { return x / y }
func absDiff(x, y float64) float64 { return math.Abs(x - y) }
