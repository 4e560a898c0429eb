// Package client is the typed Go SDK for the hotnocd daemon: the
// hotnoc.Lab experiment surface over HTTP, with sweep outcomes streamed
// back as server-sent events.
//
// Client satisfies hotnoc.Session, and Client.Sweep returns the same
// iter.Seq2[SweepOutcome, error] shape as Lab.Sweep — for periodic,
// reactive and mixed grids alike — so code written against the Lab,
// including every hotnoc CLI behind its -server flag, runs unchanged
// against a remote daemon:
//
//	c := client.New("http://localhost:7077", client.WithScale(8))
//	for out, err := range c.Sweep(ctx, pts) {
//		...
//	}
//
// Because JSON round-trips float64 bit-exactly, results obtained through
// a daemon are bitwise identical to an in-process run at the same scale.
//
// Daemons running with a tenants file require an API key on every
// request; set one with WithAPIKey (CLIs read it from -api-key or
// HOTNOC_API_KEY). A tenant over its submit rate or queued-job bound is
// answered with 429 + Retry-After, surfaced as a *RetryableError;
// WithRetry makes submissions absorb those transparently with bounded
// backoff.
//
// Remote outcomes carry a metadata-only Built: StaticPeakC, EnergyScale,
// BlockCycles, and a System holding just the grid dimensions and clock —
// what result consumers (tables, heat maps, period conversion) need. The
// full multi-megabyte simulation state never crosses the wire; callers
// that need it must build locally. Custom migration schemes cannot cross
// the wire either — points travel by scheme name and are resolved
// server-side.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hotnoc"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/internal/geom"
	"hotnoc/server/wire"
)

// Client talks to one hotnocd daemon. It is safe for concurrent use.
type Client struct {
	base     string
	http     *http.Client
	scale    int
	apiKey   string
	retries  int
	progress func(hotnoc.Event)
}

// Option configures a Client at construction.
type Option func(*Client)

// WithScale sets the workload divisor requested for every sweep (0 means
// the server default of 1 = paper scale). The daemon keeps one Lab per
// scale, so clients at one scale share caches.
func WithScale(n int) Option {
	return func(c *Client) { c.scale = n }
}

// WithProgress registers a callback for the daemon's
// build/characterize/evaluate progress events, mirroring
// hotnoc.WithProgress. Delivery is serialized per sweep.
func WithProgress(fn func(hotnoc.Event)) Option {
	return func(c *Client) { c.progress = fn }
}

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default client has no timeout — sweep streams are
// long-lived; use context cancellation to bound calls.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithAPIKey authenticates every request as "Authorization: Bearer
// <key>" — required against a daemon running with a tenants file.
// Empty means unauthenticated (an open or anonymous-allowing daemon).
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithRetry makes sweep submissions retry up to n times when the daemon
// answers with a retryable rejection (429 over-rate/over-queue, 503
// draining), sleeping the server's Retry-After hint — or an exponential
// backoff from 100ms, capped at 30s, when the server gave none —
// between attempts. Idempotent GETs (jobs, stats, builds) likewise
// retry transient transport failures — connection refused or reset by a
// restarting daemon — with the same backoff. Requests with side effects
// are never replayed on a transport error; submission retries are safe
// only because a rejected submission registers no job.
func WithRetry(n int) Option {
	return func(c *Client) { c.retries = n }
}

// ErrInterrupted marks a sweep event stream that ended before its
// terminal done/error event — the daemon died, or the connection to it
// was cut mid-stream. Callers match it with errors.Is to tell a lost
// daemon (worth resubmitting) from a genuine evaluation failure.
var ErrInterrupted = errors.New("event stream ended without a terminal event")

// RetryableError is a rejection the caller may retry later: the daemon
// answered 429 (the tenant is over its submit rate or queued-job bound)
// or 503 (draining). RetryAfter carries the parsed Retry-After hint,
// zero when the server sent none.
type RetryableError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *RetryableError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("hotnocd: %s (retry after %s)", e.Message, e.RetryAfter)
	}
	return "hotnocd: " + e.Message
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:7077"). No connection is made until the first call.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

var _ hotnoc.Session = (*Client)(nil)

// NewSession returns the experiment session behind a CLI's flags: a
// remote daemon client when serverURL is non-empty, otherwise a local Lab
// built from the remaining options. In remote mode apiKey authenticates
// against a tenanted daemon (empty = unauthenticated), while workers and
// cacheDir are the daemon's business and are ignored; progress (when
// non-nil) receives pipeline events either way. Every hotnoc CLI routes
// its -server and -api-key flags through this one switch so the local
// and remote paths cannot drift apart.
func NewSession(serverURL, apiKey string, scale, workers int, cacheDir string, progress func(hotnoc.Event)) hotnoc.Session {
	if serverURL != "" {
		opts := []Option{WithScale(scale), WithAPIKey(apiKey)}
		if progress != nil {
			opts = append(opts, WithProgress(progress))
		}
		return New(serverURL, opts...)
	}
	opts := []hotnoc.LabOption{
		hotnoc.WithScale(scale),
		hotnoc.WithWorkers(workers),
		hotnoc.WithCacheDir(cacheDir),
	}
	if progress != nil {
		opts = append(opts, hotnoc.WithProgress(progress))
	}
	return hotnoc.NewLab(opts...)
}

// StartSweep submits a grid and returns the daemon's job id without
// waiting for any results. Most callers want Sweep, which submits and
// streams in one call; StartSweep is for working with jobs directly
// (attach later via the daemon's events endpoint, cancel via CancelJob).
func (c *Client) StartSweep(ctx context.Context, pts []hotnoc.SweepPoint) (string, error) {
	req := wire.SweepRequest{Scale: c.scale, Points: make([]wire.PointSpec, len(pts))}
	for i, p := range pts {
		req.Points[i] = wire.FromPoint(p)
	}
	var created wire.SweepCreated
	err := c.postJSON(ctx, "/v1/sweeps", req, &created)
	for attempt := 0; attempt < c.retries && err != nil; attempt++ {
		var re *RetryableError
		if !errors.As(err, &re) {
			break
		}
		if berr := retryBackoff(ctx, attempt, re.RetryAfter); berr != nil {
			return "", berr
		}
		err = c.postJSON(ctx, "/v1/sweeps", req, &created)
	}
	if err != nil {
		return "", err
	}
	return created.ID, nil
}

// Sweep submits the grid and streams outcomes in point order as they
// complete, exactly like Lab.Sweep. On error the sequence yields one
// final (zero outcome, error) pair and stops; breaking early cancels the
// server-side job.
func (c *Client) Sweep(ctx context.Context, pts []hotnoc.SweepPoint) iter.Seq2[hotnoc.SweepOutcome, error] {
	return func(yield func(hotnoc.SweepOutcome, error) bool) {
		if len(pts) == 0 {
			return
		}
		id, err := c.StartSweep(ctx, pts)
		if err != nil {
			yield(hotnoc.SweepOutcome{}, err)
			return
		}
		finished, err := c.streamJob(ctx, id, pts, yield)
		if err != nil {
			yield(hotnoc.SweepOutcome{}, err)
			return
		}
		if !finished {
			// The consumer broke out early: cancel the server-side job so
			// the daemon stops simulating for nobody. Best effort, on a
			// fresh context — the caller's may already be done.
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = c.CancelJob(cctx, id)
		}
	}
}

// streamJob consumes a job's SSE stream, yielding outcomes and requiring
// exactly one per submitted point before the terminal done event. It
// returns finished=false when the consumer stopped the iteration early,
// and a non-nil error for transport or server-reported failures —
// including a daemon that echoed a different experiment kind than was
// submitted (a pre-unification daemon silently drops reactive fields).
func (c *Client) streamJob(ctx context.Context, id string, pts []hotnoc.SweepPoint, yield func(hotnoc.SweepOutcome, error) bool) (finished bool, _ error) {
	want := len(pts)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sweeps/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}

	st := stream{builts: map[string]*chipcfg.Built{}}
	rd := bufio.NewReader(resp.Body)
	var line []byte
	var event string
	var data bytes.Buffer
	for {
		line, err = readLine(rd, line[:0])
		if err != nil {
			if err == io.EOF {
				return false, fmt.Errorf("client: job %s: %w", id, ErrInterrupted)
			}
			return false, fmt.Errorf("client: job %s: %w", id, err)
		}
		text := bytes.TrimRight(line, "\r\n")
		switch {
		case len(text) == 0:
			if event == "" && data.Len() == 0 {
				continue
			}
			done, err := c.dispatch(event, data.Bytes(), pts, &st, yield)
			if err != nil {
				return false, err
			}
			switch done {
			case streamDone:
				// A done event with outcomes missing means the daemon's
				// log was truncated (or a version-skewed server); a short
				// result must be an error, not a silently partial grid.
				if st.next != want {
					return false, fmt.Errorf("client: job %s: done after %d of %d outcomes", id, st.next, want)
				}
				return true, nil
			case streamStopped:
				return false, nil
			}
			event = ""
			data.Reset()
		case bytes.HasPrefix(text, []byte("event:")):
			event = eventName(bytes.TrimSpace(text[len("event:"):]))
		case bytes.HasPrefix(text, []byte("data:")):
			data.Write(bytes.TrimSpace(text[len("data:"):]))
		}
	}
}

// readLine appends the next line of rd, terminator included, to buf and
// returns it. Reading through buf, which the caller passes back, keeps
// a stream's lines from allocating once buf has grown to its longest.
func readLine(rd *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := rd.ReadSlice('\n')
		buf = append(buf, frag...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// eventName returns the SSE event name as a string, without allocating
// for the names the protocol defines.
func eventName(b []byte) string {
	for _, name := range [...]string{wire.EventOutcome, wire.EventProgress, wire.EventDone, wire.EventError, wire.EventState} {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}

// stream is the decoding state of one job's event stream.
type stream struct {
	// builts holds the metadata-only Built of each configuration: remote
	// outcomes of one configuration share one, mirroring how Lab
	// outcomes share one calibrated build.
	builts map[string]*chipcfg.Built
	// next is the expected outcome index, to verify SSE point order.
	next int
	// msg is the outcome being decoded, reused across events.
	msg wire.OutcomeMsg
	// dec decodes the stream's outcome payloads one after another from
	// src, so the decoder state json.Unmarshal makes per call is made
	// once per stream; fed counts the payload bytes given to it.
	dec *json.Decoder
	src bytes.Reader
	fed int64
	// legs and temps are the longest Legs and per-block temperature
	// slices decoded so far: each periodic result is given that much
	// capacity up front, so decoding fills it without growing it one
	// element at a time.
	legs, temps int
}

type streamState int

const (
	streamLive streamState = iota
	streamDone
	streamStopped
)

// dispatch handles one complete SSE frame.
func (c *Client) dispatch(event string, data []byte, pts []hotnoc.SweepPoint, st *stream, yield func(hotnoc.SweepOutcome, error) bool) (streamState, error) {
	switch event {
	case wire.EventProgress:
		if c.progress == nil {
			return streamLive, nil
		}
		var m wire.EventMsg
		if err := json.Unmarshal(data, &m); err != nil {
			return streamLive, fmt.Errorf("client: bad progress event: %w", err)
		}
		c.progress(m.Event())
	case wire.EventOutcome:
		periodic := st.next < len(pts) && pts[st.next].Kind() != hotnoc.KindReactive
		m, err := st.decode(data, periodic)
		if err != nil {
			return streamLive, fmt.Errorf("client: bad outcome event: %w", err)
		}
		if m.Index != st.next {
			return streamLive, fmt.Errorf("client: outcome %d arrived out of order (want %d)", m.Index, st.next)
		}
		// A daemon predating the unified point model silently drops the
		// reactive fields and evaluates the point as periodic; the kind it
		// echoes back betrays that, so fail loudly instead of handing the
		// caller results of the wrong experiment.
		if m.Index < len(pts) {
			sent, got := pts[m.Index].Kind() == hotnoc.KindReactive, m.Point.Kind == wire.KindReactive
			if sent != got {
				echoed := m.Point.Kind
				if echoed == "" {
					echoed = wire.KindPeriodic
				}
				return streamLive, fmt.Errorf(
					"client: outcome %d came back %s but point was submitted as %s (daemon predates the unified point model?)",
					m.Index, echoed, pts[m.Index].Kind())
			}
		}
		st.next++
		if !yield(outcomeFromMsg(m, st.builts), nil) {
			return streamStopped, nil
		}
	case wire.EventError:
		var m wire.ErrorMsg
		if err := json.Unmarshal(data, &m); err != nil {
			return streamLive, fmt.Errorf("client: bad error event: %w", err)
		}
		return streamLive, m.Err()
	case wire.EventDone:
		return streamDone, nil
	}
	return streamLive, nil
}

// decode unmarshals one outcome payload, presizing the result slices
// when the point is expected to be periodic. The result it returns is
// the same json.Unmarshal gives into a zero OutcomeMsg: the presized
// slices differ only in capacity, and one the payload never reached is
// set back to nil.
func (st *stream) decode(data []byte, periodic bool) (*wire.OutcomeMsg, error) {
	m := &st.msg
	*m = wire.OutcomeMsg{}
	r := &m.Result
	if periodic && st.legs > 0 {
		r.Legs = make([]core.LegReport, 0, st.legs)
	}
	if n := st.temps; periodic && n > 0 {
		slab := make([]float64, 2*n)
		r.BaselineMaxTemps, r.MigratedMaxTemps = slab[:0:n], slab[n:n:2*n]
	}
	if st.dec == nil {
		st.dec, st.fed = json.NewDecoder(&st.src), 0
	}
	st.src.Reset(data)
	st.fed += int64(len(data))
	if err := st.dec.Decode(m); err != nil || st.dec.InputOffset() != st.fed {
		// A payload that is not exactly one JSON value: decode it again
		// as json.Unmarshal does, which reports the error in its words,
		// and give the next payload a decoder of its own.
		st.dec = nil
		*m = wire.OutcomeMsg{}
		if err := json.Unmarshal(data, m); err != nil {
			return nil, err
		}
	}
	// Decoding writes an empty JSON array as a zero-capacity slice, so
	// an empty slice that kept its capacity was absent from the payload,
	// as the whole result is on a reactive outcome.
	r.Legs = unreached(r.Legs)
	r.BaselineMaxTemps = unreached(r.BaselineMaxTemps)
	r.MigratedMaxTemps = unreached(r.MigratedMaxTemps)
	st.legs = max(st.legs, len(r.Legs))
	st.temps = max(st.temps, len(r.BaselineMaxTemps), len(r.MigratedMaxTemps))
	return m, nil
}

// unreached returns nil for a presized slice decoding never wrote to.
func unreached[T any](s []T) []T {
	if len(s) == 0 && cap(s) > 0 {
		return nil
	}
	return s
}

// outcomeFromMsg rebuilds a SweepOutcome from the wire, fabricating (and
// sharing per configuration) the metadata-only Built.
func outcomeFromMsg(m *wire.OutcomeMsg, builts map[string]*chipcfg.Built) hotnoc.SweepOutcome {
	b, ok := builts[m.Built.Config]
	if !ok {
		b = &chipcfg.Built{
			System: &core.System{
				Grid:    geom.NewGrid(m.Built.GridW, m.Built.GridH),
				ClockHz: m.Built.ClockHz,
			},
			EnergyScale: m.Built.EnergyScale,
			StaticPeakC: m.Built.StaticPeakC,
			BlockCycles: m.Built.BlockCycles,
		}
		builts[m.Built.Config] = b
	}
	p, err := m.Point.Point()
	if err != nil {
		// A scheme the client cannot resolve still names itself; result
		// consumers key on the name only.
		p = hotnoc.SweepPoint{
			Config:                 m.Point.Config,
			Scheme:                 hotnoc.Scheme{Name: m.Point.Scheme},
			Blocks:                 m.Point.Blocks,
			ExcludeMigrationEnergy: m.Point.ExcludeMigrationEnergy,
		}
		if m.Point.Reactive != nil {
			p.Reactive = &hotnoc.ReactiveConfig{
				Scheme:       p.Scheme,
				TriggerC:     m.Point.Reactive.TriggerC,
				SimBlocks:    m.Point.Reactive.SimBlocks,
				WarmupBlocks: m.Point.Reactive.WarmupBlocks,
				SensorQuantC: m.Point.Reactive.SensorQuantC,
				Dt:           m.Point.Reactive.Dt,
				PeaksEvery:   m.Point.Reactive.PeaksEvery,
			}
		}
	}
	return hotnoc.SweepOutcome{Point: p, Built: b, Result: m.Result, Reactive: m.Reactive}
}

// SweepAll is Sweep collected into a slice.
func (c *Client) SweepAll(ctx context.Context, pts []hotnoc.SweepPoint) ([]hotnoc.SweepOutcome, error) {
	out := make([]hotnoc.SweepOutcome, 0, len(pts))
	for o, err := range c.Sweep(ctx, pts) {
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Figure1 regenerates Figure 1 of the paper through the daemon; see
// Lab.Figure1. The aggregation is hotnoc.Figure1FromOutcomes, shared with
// the Lab, so the result is bitwise identical to an in-process run at the
// same scale.
func (c *Client) Figure1(ctx context.Context, configs []string) (*hotnoc.Figure1Result, error) {
	if configs == nil {
		configs = []string{"A", "B", "C", "D", "E"}
	}
	outs, err := c.SweepAll(ctx, hotnoc.SweepGrid(configs, hotnoc.Schemes(), nil))
	if err != nil {
		return nil, err
	}
	return hotnoc.Figure1FromOutcomes(configs, outs), nil
}

// PeriodSweep regenerates the migration-period study through the daemon;
// see Lab.PeriodSweep.
func (c *Client) PeriodSweep(ctx context.Context, config string, scheme hotnoc.Scheme, blocks []int) ([]hotnoc.PeriodPoint, error) {
	if len(blocks) == 0 {
		blocks = []int{1, 4, 8}
	}
	outs, err := c.SweepAll(ctx, hotnoc.SweepGrid([]string{config}, []hotnoc.Scheme{scheme}, blocks))
	if err != nil {
		return nil, err
	}
	return hotnoc.PeriodPointsFromOutcomes(outs), nil
}

// MigrationEnergy regenerates the migration-energy ablation through the
// daemon; see Lab.MigrationEnergy.
func (c *Client) MigrationEnergy(ctx context.Context, config string) ([]hotnoc.EnergyStudy, error) {
	outs, err := c.SweepAll(ctx, hotnoc.MigrationEnergyGrid(config))
	if err != nil {
		return nil, err
	}
	return hotnoc.EnergyStudiesFromOutcomes(outs), nil
}

// Reactive evaluates threshold-triggered migration configurations on one
// chip configuration through the daemon; see Lab.Reactive. The
// configurations travel as reactive grid points — schemes by name,
// thresholds and horizons by value — and the daemon shares NoC
// characterizations with every periodic sweep at the same scale, so the
// results are bitwise identical to an in-process Lab.Reactive.
func (c *Client) Reactive(ctx context.Context, config string, cfgs []hotnoc.ReactiveConfig) ([]hotnoc.ReactiveResult, error) {
	return hotnoc.SweepReactive(ctx, c, config, cfgs)
}

// Placement fetches one configuration's thermally-aware placement report
// from the daemon; see Lab.Placement.
func (c *Client) Placement(ctx context.Context, config string) (*hotnoc.PlacementReport, error) {
	scale := c.scale
	if scale <= 0 {
		scale = 1
	}
	var rep hotnoc.PlacementReport
	if err := c.getJSON(ctx, fmt.Sprintf("/v1/builds/%s?scale=%d", url.PathEscape(config), scale), &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Jobs lists the daemon's jobs in creation order.
func (c *Client) Jobs(ctx context.Context) ([]wire.JobInfo, error) {
	var list wire.JobList
	if err := c.getJSON(ctx, "/v1/jobs", &list); err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// Job returns one job's state.
func (c *Client) Job(ctx context.Context, id string) (wire.JobInfo, error) {
	var info wire.JobInfo
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), &info)
	return info, err
}

// JobProgress is the live-introspection slice of a job's state: how far
// it is, what pipeline stage it is in, and the daemon's ETA estimate.
type JobProgress struct {
	// State is the job's lifecycle state (wire.JobQueued, JobRunning,
	// JobDone, JobFailed, JobCanceled).
	State string
	// Stage is the pipeline stage a running job most recently entered
	// ("build", "characterize", "evaluate"); empty otherwise.
	Stage string
	// Done and Total count streamed outcomes against the submitted grid.
	Done, Total int
	// EtaSec is the daemon's completion estimate in seconds: queue-pace
	// extrapolation while queued, own-pace extrapolation while running;
	// zero when the daemon has nothing to extrapolate from.
	EtaSec float64
}

// JobProgress polls one job's live progress — a convenience over Job
// for progress bars and watch loops.
func (c *Client) JobProgress(ctx context.Context, id string) (JobProgress, error) {
	info, err := c.Job(ctx, id)
	if err != nil {
		return JobProgress{}, err
	}
	return JobProgress{
		State:  info.State,
		Stage:  info.Stage,
		Done:   info.Done,
		Total:  info.Points,
		EtaSec: info.EtaSec,
	}, nil
}

// CancelJob cancels a running job (its sweep context is canceled and its
// event stream terminates with an error event) or forgets a finished one.
func (c *Client) CancelJob(ctx context.Context, id string) (wire.JobInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return wire.JobInfo{}, err
	}
	var info wire.JobInfo
	err = c.do(req, &info)
	return info, err
}

// Stats returns the daemon's job counts and per-Lab counters: decodes,
// characterization cache hits/misses, worker utilization — and the
// per-tenant accounting.
func (c *Client) Stats(ctx context.Context) (wire.Stats, error) {
	var st wire.Stats
	err := c.getJSON(ctx, "/v1/stats", &st)
	return st, err
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, v)
}

func (c *Client) postJSON(ctx context.Context, path string, body, v any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, v)
}

// authorize attaches the client's API key as a Bearer credential.
func (c *Client) authorize(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
}

func (c *Client) do(req *http.Request, v any) error {
	c.authorize(req)
	resp, err := c.http.Do(req)
	// Idempotent GETs absorb transient transport failures — a daemon
	// restarting mid-poll refuses or resets connections for a moment —
	// under the same retry budget and backoff as sweep submission.
	// Nothing with side effects is ever replayed on a transport error.
	for attempt := 0; attempt < c.retries && req.Method == http.MethodGet && transientNetError(err); attempt++ {
		if berr := retryBackoff(req.Context(), attempt, 0); berr != nil {
			return berr
		}
		resp, err = c.http.Do(req)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// transientNetError reports whether err is a transport-level failure
// worth retrying: the request never produced a response (connection
// refused, reset, DNS hiccup) and the cause was not the caller's own
// context ending.
func transientNetError(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// retryBackoff sleeps before retry number attempt: the server's hint
// when one was given, else an exponential backoff from 100ms capped at
// 30s. Returns ctx's error when the context ends first.
func retryBackoff(ctx context.Context, attempt int, hint time.Duration) error {
	delay := hint
	if delay <= 0 {
		delay = min(100*time.Millisecond<<attempt, 30*time.Second)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(delay):
		return nil
	}
}

// decodeError turns a non-2xx response into an error, preferring the
// server's ErrorMsg body. 429 and 503 become *RetryableError carrying
// the parsed Retry-After hint.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	var em wire.ErrorMsg
	if json.Unmarshal(body, &em) == nil && em.Error != "" {
		msg = em.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		re := &RetryableError{Status: resp.StatusCode, Message: fmt.Sprintf("%s (%s)", msg, resp.Status)}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			re.RetryAfter = time.Duration(secs) * time.Second
		}
		return re
	}
	return fmt.Errorf("hotnocd: %s (%s)", msg, resp.Status)
}
