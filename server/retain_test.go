package server

import (
	"context"
	"encoding/json"
	"io"
	"iter"
	"net/http"
	"strings"
	"testing"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/server/wire"
)

// gatedLab returns a sweepHook backend that runs each job on lab once
// release closes, so subscribers can attach while the job is running.
// With sweep set, the job sweeps that grid instead of its own points.
func gatedLab(lab *hotnoc.Lab, release <-chan struct{}, sweep []hotnoc.SweepPoint) func(int) sweepFn {
	return func(int) sweepFn {
		return func(ctx context.Context, pts []hotnoc.SweepPoint, progress func(hotnoc.Event)) iter.Seq2[hotnoc.SweepOutcome, error] {
			return func(yield func(hotnoc.SweepOutcome, error) bool) {
				select {
				case <-release:
				case <-ctx.Done():
					yield(hotnoc.SweepOutcome{}, ctx.Err())
					return
				}
				if sweep != nil {
					pts = sweep
				}
				for o, err := range lab.SweepWithProgress(ctx, pts, progress) {
					if !yield(o, err) {
						return
					}
				}
			}
		}
	}
}

// readEvents returns the whole event stream of job id.
func readEvents(t *testing.T, url, id string) func() []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body := make(chan []byte, 1)
	go func() {
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- b
	}()
	return func() []byte { return <-body }
}

// TestSubscribersReceiveSameBytes: a job keeps its outcomes as wire
// values and marshals them as it sends them, so a live subscriber, a
// second concurrent one and one that arrives after the job finished all
// receive byte-identical streams, and every outcome frame is exactly the
// JSON of the in-process outcome.
func TestSubscribersReceiveSameBytes(t *testing.T) {
	release := make(chan struct{})
	srv, url := testServer(t, Config{})
	lab := hotnoc.NewLab(hotnoc.WithScale(testScale))
	srv.sweepHook = gatedLab(lab, release, nil)
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := testGrid()

	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	live, second := readEvents(t, url, id), readEvents(t, url, id)
	close(release)
	liveBody, secondBody := live(), second()
	waitForState(t, c, id, wire.JobDone)
	late := readEvents(t, url, id)()

	if string(secondBody) != string(liveBody) || string(late) != string(liveBody) {
		t.Fatalf("subscribers received different streams:\nlive:   %q\nsecond: %q\nlate:   %q", liveBody, secondBody, late)
	}
	outs, err := lab.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, frame := range strings.Split(string(liveBody), "\n\n") {
		data, ok := strings.CutPrefix(frame, "event: "+wire.EventOutcome+"\ndata: ")
		if !ok {
			continue
		}
		want, err := json.Marshal(wire.FromOutcome(n, outs[n]))
		if err != nil {
			t.Fatal(err)
		}
		if data != string(want) {
			t.Fatalf("outcome %d frame %s, want %s", n, data, want)
		}
		n++
	}
	if n != len(pts) {
		t.Fatalf("stream carried %d outcomes, want %d", n, len(pts))
	}
}

// TestErrorTextsPinned pins the error bytes clients see: a malformed
// point's 400 body and a failed sweep's SSE error event, both carrying
// the pipeline's "hotnoc:" prefix.
func TestErrorTextsPinned(t *testing.T) {
	release := make(chan struct{})
	close(release)
	srv, url := testServer(t, Config{})
	srv.sweepHook = gatedLab(hotnoc.NewLab(hotnoc.WithScale(testScale)), release,
		[]hotnoc.SweepPoint{{Config: "Q", Scheme: hotnoc.Rot()}})

	body := `{"scale":8,"points":[{"config":"A","scheme":"Rot"},` +
		`{"config":"A","scheme":"Rot","kind":"reactive","blocks":4,"reactive":{"trigger_c":84}}]}`
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":"hotnoc: point 1: reactive point sets a migration period (4 blocks)"}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(got) != want {
		t.Fatalf("malformed point: %d %q, want 400 %q", resp.StatusCode, got, want)
	}

	// The hook sweeps an unknown configuration, which the Lab rejects
	// once the job runs.
	c := client.New(url, client.WithScale(testScale))
	id, err := c.StartSweep(context.Background(), testGrid()[:1])
	if err != nil {
		t.Fatal(err)
	}
	events := string(readEvents(t, url, id)())
	wantFrame := "event: " + wire.EventError + "\n" +
		`data: {"error":"hotnoc: point 0: chipcfg: unknown configuration \"Q\" (want A..E)"}` + "\n\n"
	if !strings.HasSuffix(events, wantFrame) {
		t.Fatalf("failed sweep's stream ends %q, want %q", events[max(len(events)-len(wantFrame), 0):], wantFrame)
	}
}
