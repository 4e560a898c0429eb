package hotnoc

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"unicode/utf8"
)

// replacerNorm is the normaliser scheme lookup used to build per call:
// drop spaces, hyphens and underscores, then lower-case by Unicode rules.
var replacerNorm = strings.NewReplacer(" ", "", "-", "", "_", "")

// refSchemeByName is the replacer-based scheme lookup, kept as the
// reference the static-table lookup must agree with.
func refSchemeByName(name string) (Scheme, error) {
	norm := strings.ToLower(replacerNorm.Replace(name))
	for _, s := range Schemes() {
		if strings.ToLower(replacerNorm.Replace(s.Name)) == norm {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("core: unknown migration scheme %q", name)
}

// refConfigByName is the configuration lookup that scanned a fresh copy
// of every specification.
func refConfigByName(name string) (Spec, error) {
	for _, s := range Configs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("chipcfg: unknown configuration %q (want A..E)", name)
}

// checkNameAgrees fails t when either lookup of name disagrees with its
// reference on the result or the error text.
func checkNameAgrees(t *testing.T, name string) {
	t.Helper()
	got, gerr := SchemeByName(name)
	want, werr := refSchemeByName(name)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || got.Name != want.Name || (got.StepFn == nil) != (want.StepFn == nil) {
		t.Fatalf("SchemeByName(%q) = %q, %v; reference %q, %v", name, got.Name, gerr, want.Name, werr)
	}
	gotc, gerr := ConfigByName(name)
	wantc, werr := refConfigByName(name)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || gotc != wantc {
		t.Fatalf("ConfigByName(%q) = %q, %v; reference %q, %v", name, gotc.Name, gerr, wantc.Name, werr)
	}
}

// nameSeeds are the spellings the random names are mutated from: every
// scheme and configuration name.
var nameSeeds = []string{"Rot", "X Mirror", "X-Y Mirror", "Right Shift", "X-Y Shift", "A", "B", "C", "D", "E"}

// extraPieces are inserted into random names: the dropped separators,
// other spacing and control bytes, and non-ASCII runes whose case
// mapping stays outside ASCII. The last three are not valid UTF-8.
var extraPieces = []string{" ", "-", "_", "\t", "\x00", "\u0131", "\u017f", "\u00e9", "\u00c5", "\ufffd", "\xff", "\xc4", "\xe2\x84"}

// randomName mutates a seed name: each byte keeps or flips its case, 'i'
// and 'k' may become U+0130 and U+212A, and separators or extra pieces
// may be inserted or a byte dropped. With raw set the insertions include
// invalid UTF-8 and arbitrary bytes.
func randomName(rng *rand.Rand, raw bool, b []byte) []byte {
	seed := nameSeeds[rng.IntN(len(nameSeeds))]
	for i := 0; i <= len(seed); i++ {
		switch rng.IntN(16) {
		case 0:
			if raw {
				b = append(b, extraPieces[rng.IntN(len(extraPieces))]...)
			} else {
				b = append(b, extraPieces[rng.IntN(len(extraPieces)-3)]...)
			}
		case 1:
			if raw {
				b = append(b, byte(rng.IntN(256)))
				break
			}
			fallthrough
		case 2, 3:
			b = append(b, "-_ "[rng.IntN(3)])
		case 4:
			i++ // drop the byte
		}
		if i >= len(seed) {
			break
		}
		c := seed[i]
		switch lc := c | 0x20; {
		case lc == 'i' && rng.IntN(3) == 0:
			b = append(b, "\u0130"...)
		case lc == 'k' && rng.IntN(3) == 0:
			b = append(b, "\u212a"...)
		case lc >= 'a' && lc <= 'z' && rng.IntN(2) == 0:
			b = append(b, c^0x20)
		default:
			b = append(b, c)
		}
	}
	return b
}

// TestNameResolutionMatchesReplacer: SchemeByName and ConfigByName agree
// with their reference lookups on results and error texts, over a table
// of spellings and 2×10⁵ random mutations of valid names, and resolve a
// valid name without allocating.
func TestNameResolutionMatchesReplacer(t *testing.T) {
	for _, name := range []string{
		"", " ", "-", "_", "rot", "Rot", "ROT", "r o t", "r-o_t", "X Mirror", "xmirror", "X_MIRROR",
		"x-y mirror", "X-Y Mirror", "XYMirror", "xy-mirror", "Right Shift", "right_shift", "RIGHTSHIFT",
		"X-Y Shift", "xyshift", "x y s h i f t", "rotate", "ro", "spin", "xy",
		"R\u0130GHTSH\u0130FT", "r\u0130ghtshift", "xysh\u0130ft", "\u212a", "Right\u212aShift",
		"rightsh\u0131ft", "\u017fhift", "rot\xff", "\xffrot", "rot\x00", "rot\t", " Rot ",
		"A", "B", "C", "D", "E", "a", "e", "F", "Q", "AB", " A", "A ", "\u0130",
	} {
		checkNameAgrees(t, name)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	const n = 100_000
	var b []byte
	resolved := 0
	for i := range 2 * n {
		// The first n names may carry arbitrary bytes, so split and
		// invalid UTF-8 sequences occur; the second n are valid UTF-8.
		b = randomName(rng, i < n, b[:0])
		if i >= n && !utf8.Valid(b) {
			t.Fatalf("rune name %q is not valid UTF-8", b)
		}
		checkNameAgrees(t, string(b))
		if _, err := SchemeByName(string(b)); err == nil {
			resolved++
		}
	}
	// The mutations must leave enough names resolvable for the
	// agreement on successes to mean something.
	if resolved < n/4 {
		t.Fatalf("only %d of %d random names resolved to a scheme", resolved, 2*n)
	}
	t.Logf("%d of %d random names resolved to a scheme", resolved, 2*n)

	if a := testing.AllocsPerRun(100, func() {
		if _, err := SchemeByName("X-Y Shift"); err != nil {
			t.Fatal(err)
		}
		if _, err := ConfigByName("E"); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("resolving a valid scheme and configuration made %.0f allocations, want 0", a)
	}
}
