package chipcfg

import (
	"errors"
	"reflect"
	"testing"

	"hotnoc/internal/ldpc"
)

// TestOverlappedDrawMatchesNewRegularRetry: firstFullRank runs the work
// on every candidate of shape (12, 6, 3, 3), whose first draws are rank
// deficient, and keeps the result of the one ldpc.NewRegular returns; a
// work error on a discarded candidate is discarded with it.
func TestOverlappedDrawMatchesNewRegularRetry(t *testing.T) {
	const n, m, w, seed = 12, 6, 3, 3
	want, err := ldpc.NewRegular(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ldpc.Draw(n, m, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var tried []*ldpc.Code
	errWork := errors.New("work failed")
	got, err := firstFullRank("T", d, func(c *ldpc.Code) (*ldpc.Code, error) {
		tried = append(tried, c)
		if len(tried) == 1 {
			return nil, errWork
		}
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tried) < 2 {
		t.Fatalf("work ran on %d candidate(s); the shape must retry", len(tried))
	}
	if got != tried[len(tried)-1] || !reflect.DeepEqual(got, want) {
		t.Fatal("firstFullRank kept a different code from ldpc.NewRegular's")
	}

	// On the kept candidate, the work's error is the result.
	d, _ = ldpc.Draw(n, m, w, seed)
	if _, err := firstFullRank("T", d, func(*ldpc.Code) (int, error) { return 0, errWork }); err != errWork {
		t.Fatalf("error %v, want the work's", err)
	}
}

// TestOverlappedDrawExhausted: a shape that is never full rank (even
// column weight) fails with NewRegular's error, named for the
// configuration, after work on every candidate.
func TestOverlappedDrawExhausted(t *testing.T) {
	_, wantErr := ldpc.NewRegular(40, 20, 2, 1)
	if wantErr == nil {
		t.Fatal("shape is full rank; pick one that is not")
	}
	d, err := ldpc.Draw(40, 20, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	_, err = firstFullRank("T", d, func(*ldpc.Code) (int, error) { runs++; return 0, nil })
	if want := "chipcfg T: code: " + wantErr.Error(); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	if runs != 32 {
		t.Fatalf("work ran on %d candidates, want 32", runs)
	}
}
