package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"

	"hotnoc"
)

// entry is one result of a reference set in its digested form: the point
// that produced it and the result arm of its kind.
type entry struct {
	Config   string
	Scheme   string
	Blocks   int
	TriggerC float64
	Result   *hotnoc.RunResult      `json:",omitempty"`
	Reactive *hotnoc.ReactiveResult `json:",omitempty"`
}

func periodicEntries(outs []hotnoc.SweepOutcome) []entry {
	es := make([]entry, len(outs))
	for i, o := range outs {
		res := o.Result
		es[i] = entry{Config: o.Point.Config, Scheme: o.Point.Scheme.Name, Blocks: o.Point.Blocks, Result: &res}
	}
	return es
}

func reactiveEntries(config string, cfgs []hotnoc.ReactiveConfig, res []hotnoc.ReactiveResult) []entry {
	es := make([]entry, len(cfgs))
	for i, c := range cfgs {
		r := res[i]
		es[i] = entry{Config: config, Scheme: c.Scheme.Name, TriggerC: c.TriggerC, Reactive: &r}
	}
	return es
}

// schemeRank orders schemes as Figure 1 does.
func schemeRank(name string) int {
	return slices.IndexFunc(hotnoc.Schemes(), func(s hotnoc.Scheme) bool { return s.Name == name })
}

// digest hashes a reference set in canonical (config, scheme, blocks,
// trigger) order, one JSON document per entry, so the digest does not
// depend on the seeded order the points ran in. JSON renders every
// float64 exactly, so any change of any result bit changes the digest. A
// result holding NaN or an infinity cannot be rendered and is an error.
func digest(es []entry) (string, error) {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.Config, b.Config),
			cmp.Compare(schemeRank(a.Scheme), schemeRank(b.Scheme)),
			cmp.Compare(a.Blocks, b.Blocks),
			cmp.Compare(a.TriggerC, b.TriggerC))
	})
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, e := range es {
		if err := enc.Encode(e); err != nil {
			return "", fmt.Errorf("digest %s/%s: %w", e.Config, e.Scheme, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// goldenFile pins the digest of every reference set per scale. The
// thermal solvers' floating-point results are pinned for one
// architecture (fused multiply-add differs across them).
type goldenFile struct {
	GOARCH  string                       `json:"goarch"`
	Digests map[string]map[string]string `json:"digests"` // set -> scale -> sha256
}

// golden checks reference-set digests against the golden file, or with
// update set records them there instead.
type golden struct {
	path   string
	update bool
	file   goldenFile
}

func loadGolden(path string, update bool) (*golden, error) {
	g := &golden{path: path, update: update}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if err := json.Unmarshal(b, &g.file); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return g, nil
}

// check verifies (or, updating, records) the digest of reference set
// name at scale. On another architecture than the pinned one it only
// reports that the check was skipped.
func (g *golden) check(name string, scale int, es []entry) (note string, err error) {
	got, err := digest(es)
	if err != nil {
		return "", err
	}
	sc := strconv.Itoa(scale)
	if g.update {
		if g.file.Digests == nil {
			g.file.Digests = map[string]map[string]string{}
		}
		if g.file.Digests[name] == nil {
			g.file.Digests[name] = map[string]string{}
		}
		g.file.Digests[name][sc] = got
		g.file.GOARCH = runtime.GOARCH
		b, err := json.MarshalIndent(g.file, "", "  ")
		if err != nil {
			return "", err
		}
		return "golden " + name + " updated", os.WriteFile(g.path, append(b, '\n'), 0o644)
	}
	if runtime.GOARCH != g.file.GOARCH {
		return fmt.Sprintf("golden %s not checked: digests are pinned for %s", name, g.file.GOARCH), nil
	}
	want, ok := g.file.Digests[name][sc]
	if !ok {
		return "", fmt.Errorf("golden %s: no digest for scale %d", name, scale)
	}
	if got != want {
		return "", fmt.Errorf("golden %s at scale %d: digest %s, want %s", name, scale, got, want)
	}
	return "golden " + name + " ok", nil
}
