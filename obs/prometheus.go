package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): families grouped under one # HELP /
// # TYPE pair, histogram buckets cumulative with an "le" label, label
// values escaped. Families render in registration order; series within a
// family sort by canonical label key, so the output is deterministic and
// golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	for _, name := range r.order {
		fam := r.families[name]
		if err := writeHeader(w, fam.name, fam.help, fam.mtype); err != nil {
			return err
		}
		for _, inst := range fam.series {
			if err := writeInstrument(w, fam, inst); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help string, mtype MetricType) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, mtype)
	return err
}

func writeInstrument(w io.Writer, fam *family, inst *instrument) error {
	switch fam.mtype {
	case TypeCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(inst.labels), formatFloat(float64(inst.counterValue())))
		return err
	case TypeGauge:
		v := 0.0
		if inst.gaugeFn != nil {
			v = inst.gaugeFn()
		} else if inst.gauge != nil {
			v = inst.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(inst.labels), formatFloat(v))
		return err
	case TypeHistogram:
		s := inst.hist.Snapshot()
		cum := uint64(0)
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatFloat(s.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, renderLabels(withLabel(inst.labels, "le", le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, renderLabels(inst.labels), formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.name, renderLabels(inst.labels), s.Count)
		return err
	}
	return nil
}

// renderLabels produces `{k="v",...}` with keys sorted, or "" for an
// empty set.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a value the way Prometheus clients expect:
// integral values without a decimal point, everything else in shortest
// round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
