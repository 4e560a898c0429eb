package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/server/tenant"
	"hotnoc/server/wire"
)

// testRegistry builds a keyed registry where each tenant's API key is
// "key-<id>".
func testRegistry(t *testing.T, tenants []*tenant.Tenant, anon *tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New(tenants, anon)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func keyed(id string, weight int, limits tenant.Limits) *tenant.Tenant {
	return tenant.NewTenant(id, "key-"+id, weight, limits)
}

// postSweep submits a one-point sweep over raw HTTP with the given
// Authorization header, returning the response for status/header
// asserts. The caller closes the body.
func postSweep(t *testing.T, url, authorization string) *http.Response {
	t.Helper()
	return sweepRequest(t, http.MethodPost, url+"/v1/sweeps", authorization)
}

// sweepRequest sends a one-point sweep body to target with method.
func sweepRequest(t *testing.T, method, target, authorization string) *http.Response {
	t.Helper()
	body, err := json.Marshal(wire.SweepRequest{Scale: testScale, Points: []wire.PointSpec{
		{Config: "A", Scheme: "Rot", Blocks: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, target, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if authorization != "" {
		req.Header.Set("Authorization", authorization)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAuthRequired: with a tenants registry and no anonymous tenant,
// every /v1 request must present a known key — missing and wrong keys
// are 401 with a WWW-Authenticate challenge, a disabled tenant's key is
// 403 — while /healthz stays open for liveness probes. No /v1 path
// bypasses tenant auth, not even one without a route.
func TestAuthRequired(t *testing.T) {
	alice := keyed("alice", 1, tenant.Limits{})
	off := keyed("mallory", 1, tenant.Limits{})
	off.Disabled = true
	_, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{alice, off}, nil)})

	cases := []struct {
		name, method, path, authorization string
		want                              int
	}{
		{"missing key", http.MethodPost, "/v1/sweeps", "", http.StatusUnauthorized},
		{"wrong key", http.MethodPost, "/v1/sweeps", "Bearer nonsense", http.StatusUnauthorized},
		{"wrong scheme", http.MethodPost, "/v1/sweeps", "Basic a2V5LWFsaWNl", http.StatusUnauthorized},
		{"disabled tenant", http.MethodPost, "/v1/sweeps", "Bearer key-mallory", http.StatusForbidden},
		{"valid key", http.MethodPost, "/v1/sweeps", "Bearer key-alice", http.StatusCreated},
		{"missing key, POST /v1/workers", http.MethodPost, "/v1/workers", "", http.StatusUnauthorized},
		{"missing key, DELETE /v1/workers/x", http.MethodDelete, "/v1/workers/x", "", http.StatusUnauthorized},
	}
	for _, tc := range cases {
		resp := sweepRequest(t, tc.method, url+tc.path, tc.authorization)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %s %s answered %d, want %d", tc.name, tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusUnauthorized || tc.want == http.StatusForbidden {
			if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
				t.Fatalf("%s: rejection carries WWW-Authenticate %q, want a Bearer challenge", tc.name, got)
			}
		}
	}

	// GET routes are guarded identically.
	resp, err := http.Get(url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated GET /v1/jobs answered %d, want 401", resp.StatusCode)
	}
	// Liveness needs no credentials.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d, want 200", resp.StatusCode)
	}
}

// TestAllowAnonymous: a registry with an anonymous tenant admits
// credential-less requests as "anonymous" but still rejects a wrong key
// — presenting a bad credential is worse than presenting none.
func TestAllowAnonymous(t *testing.T) {
	alice := keyed("alice", 1, tenant.Limits{})
	anon := &tenant.Tenant{ID: tenant.AnonymousID, Weight: 1}
	_, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{alice}, anon)})

	resp := postSweep(t, url, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("anonymous submission answered %d, want 201", resp.StatusCode)
	}
	var created wire.SweepCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Tenant != tenant.AnonymousID {
		t.Fatalf("anonymous submission attributed to %q, want %q", created.Tenant, tenant.AnonymousID)
	}

	resp = postSweep(t, url, "Bearer nonsense")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong key on an anonymous-allowing daemon answered %d, want 401", resp.StatusCode)
	}
}

// TestSubmitRate429: a tenant over its submit-rate bucket is rejected
// with 429 and a Retry-After telling it when the next token accrues —
// and only that tenant: another tenant submits freely at the same
// instant.
func TestSubmitRate429(t *testing.T) {
	slow := keyed("slow", 1, tenant.Limits{RatePerSec: 0.25, Burst: 1})
	free := keyed("free", 1, tenant.Limits{})
	srv, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{slow, free}, nil)})
	// Freeze the admission clock so the bucket cannot refill mid-test.
	frozen := time.Now()
	srv.now = func() time.Time { return frozen }

	resp := postSweep(t, url, "Bearer key-slow")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submission answered %d, want 201", resp.StatusCode)
	}
	resp = postSweep(t, url, "Bearer key-slow")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission answered %d, want 429", resp.StatusCode)
	}
	// At 0.25 jobs/sec a drained bucket needs 4 seconds for the next
	// token.
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("over-rate 429 carries Retry-After %q, want \"4\"", got)
	}
	// The other tenant is unaffected.
	resp = postSweep(t, url, "Bearer key-free")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("unrelated tenant answered %d while another was throttled, want 201", resp.StatusCode)
	}

	// The rejection is accounted to the throttled tenant on /v1/stats.
	st, err := client.New(url, client.WithAPIKey("key-slow")).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Limits.AuthRequired {
		t.Fatal("stats report auth_required=false on a keyed daemon")
	}
	var found bool
	for _, ts := range st.Tenants {
		if ts.ID == "slow" {
			found = true
			if ts.Rejected != 1 {
				t.Fatalf("tenant slow counts %d rejections, want 1", ts.Rejected)
			}
		}
	}
	if !found {
		t.Fatal("throttled tenant missing from /v1/stats")
	}
}

// TestQueuedBound429: a tenant at its running quota queues further
// submissions until its queued-job bound, where submissions become 429
// + Retry-After. Other tenants' capacity is untouched.
func TestQueuedBound429(t *testing.T) {
	bounded := keyed("bounded", 1, tenant.Limits{MaxRunning: 1, MaxQueued: 1})
	other := keyed("other", 1, tenant.Limits{})
	_, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{bounded, other}, nil)})
	c := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-bounded"))
	ctx := context.Background()

	// A wide grid occupies the tenant's single running slot.
	wide := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})
	blocker, err := c.StartSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, blocker, wire.JobRunning)

	// Second submission queues (the running quota is not a rejection)...
	resp := postSweep(t, url, "Bearer key-bounded")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("at the running quota, submission answered %d, want 201 (queued)", resp.StatusCode)
	}
	var queued wire.SweepCreated
	if err := json.NewDecoder(resp.Body).Decode(&queued); err != nil {
		t.Fatal(err)
	}
	if queued.State != wire.JobQueued {
		t.Fatalf("submission at the running quota admitted as %q, want queued", queued.State)
	}

	// ...the third hits MaxQueued and is rejected with a retry hint.
	resp = postSweep(t, url, "Bearer key-bounded")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submission answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-queue 429 carries no Retry-After header")
	}

	// A different tenant still submits and runs.
	resp = postSweep(t, url, "Bearer key-other")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("unrelated tenant answered %d while another was at its bound, want 201", resp.StatusCode)
	}

	if _, err := c.CancelJob(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	// The queued job dispatches once the quota frees and runs to done.
	waitForState(t, c, queued.ID, wire.JobDone)
}

// TestTenantJobIsolation: one tenant's jobs are invisible to another —
// absent from its listing, 404 on GET and DELETE — so job ids leak no
// cross-tenant activity and cancellation cannot cross tenants.
func TestTenantJobIsolation(t *testing.T) {
	alice := keyed("alice", 1, tenant.Limits{})
	bob := keyed("bob", 1, tenant.Limits{})
	_, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{alice, bob}, nil)})
	ctx := context.Background()
	ca := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-alice"))
	cb := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-bob"))

	id, err := ca.StartSweep(ctx, testGrid()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Job(ctx, id); err != nil {
		t.Fatalf("owner cannot read its own job: %v", err)
	}
	if _, err := cb.Job(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("alice's job visible to bob (err %v), want 404", err)
	}
	if _, err := cb.CancelJob(ctx, id); err == nil {
		t.Fatal("bob canceled alice's job")
	}
	jobs, err := cb.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("bob's listing contains %d jobs, want 0", len(jobs))
	}
	jobs, err = ca.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Tenant != "alice" {
		t.Fatalf("alice's listing is %v, want her one job", jobs)
	}
	// The event stream is guarded the same way.
	req, err := http.NewRequest(http.MethodGet, url+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-bob")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bob's subscription to alice's events answered %d, want 404", resp.StatusCode)
	}
}

// TestCancelQueuedJob: DELETE on a still-queued job terminates it
// immediately as canceled — it never dispatches, and its event stream
// replays queued → error(canceled) and closes.
func TestCancelQueuedJob(t *testing.T) {
	_, url := testServer(t, Config{MaxJobs: 1})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	wide := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})
	blocker, err := c.StartSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.StartSweep(ctx, testGrid()[:1])
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.CancelJob(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != wire.JobCanceled {
		t.Fatalf("canceled queued job reports %q immediately, want %q (no async unwind needed)",
			info.State, wire.JobCanceled)
	}
	if _, err := c.CancelJob(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	waitForTerminal(t, c, blocker)
	// The canceled jobs are accounted to their tenant before their
	// terminal state is published, so one read suffices.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if row := anonymousRow(t, st); row.Canceled != 2 {
		t.Fatalf("anonymous tenant counts %d cancellations, want 2", row.Canceled)
	}
}

// TestWFQDispatchOrderIntegration drives the scheduler through the full
// HTTP surface: with one job slot held by a blocker, a seeded burst
// from a weight-2 and a weight-1 tenant dispatches in the exact stride
// order the scheduler unit tests pin down, observed via the server's
// dispatch hook.
func TestWFQDispatchOrderIntegration(t *testing.T) {
	alice := keyed("alice", 2, tenant.Limits{})
	bob := keyed("bob", 1, tenant.Limits{})
	zed := keyed("zed", 1, tenant.Limits{})
	srv, url := testServer(t, Config{
		MaxJobs: 1,
		Tenants: testRegistry(t, []*tenant.Tenant{alice, bob, zed}, nil),
	})
	var mu sync.Mutex
	var dispatchedTenants []string
	srv.dispatchHook = func(jobID, tenantID string) {
		mu.Lock()
		dispatchedTenants = append(dispatchedTenants, tenantID)
		mu.Unlock()
	}
	ctx := context.Background()
	cz := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-zed"))
	ca := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-alice"))
	cb := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-bob"))

	// The blocker occupies the only slot while the burst queues.
	wide := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})
	blocker, err := cz.StartSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	var aliceJobs, bobJobs []string
	for i := 0; i < 4; i++ {
		id, err := ca.StartSweep(ctx, testGrid()[:1])
		if err != nil {
			t.Fatal(err)
		}
		aliceJobs = append(aliceJobs, id)
		id, err = cb.StartSweep(ctx, testGrid()[:1])
		if err != nil {
			t.Fatal(err)
		}
		bobJobs = append(bobJobs, id)
	}
	st, err := cz.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Queued != 8 {
		t.Fatalf("%d jobs queued behind the blocker, want 8", st.Jobs.Queued)
	}

	// Freeing the slot drains the burst one dispatch at a time; every
	// completion triggers the next dispatch, so the recorded order is the
	// scheduler's total order regardless of job timing.
	if _, err := cz.CancelJob(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	for _, id := range aliceJobs {
		waitForState(t, ca, id, wire.JobDone)
	}
	for _, id := range bobJobs {
		waitForState(t, cb, id, wire.JobDone)
	}

	mu.Lock()
	got := strings.Join(dispatchedTenants, " ")
	mu.Unlock()
	// zed's blocker dispatched first; then stride order at weights 2:1
	// with alice winning the equal-pass tie-breaks.
	want := "zed alice bob alice alice bob alice bob bob"
	if got != want {
		t.Fatalf("dispatch order\n got %s\nwant %s", got, want)
	}
}

// TestSweepBodyLimit: a request body over Config.MaxBody is rejected
// with 413 before any of it is parsed.
func TestSweepBodyLimit(t *testing.T) {
	_, url := testServer(t, Config{MaxBody: 512})
	points := make([]wire.PointSpec, 64)
	for i := range points {
		points[i] = wire.PointSpec{Config: "A", Scheme: "Rot", Blocks: 1}
	}
	body, err := json.Marshal(wire.SweepRequest{Scale: testScale, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 512 {
		t.Fatalf("test request is only %d bytes, too small to trip the limit", len(body))
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep answered %d, want 413", resp.StatusCode)
	}
}

// TestQueuedJobLifecycleEvents: a queued job's event stream replays the
// queued and running state transitions before its outcomes, so
// subscribers see the whole lifecycle.
func TestQueuedJobLifecycleEvents(t *testing.T) {
	_, url := testServer(t, Config{MaxJobs: 1})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	wide := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})
	blocker, err := c.StartSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.StartSweep(ctx, testGrid()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, wire.JobDone)

	resp, err := http.Get(url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var states []string
	var event string
	for _, line := range strings.Split(readAllString(t, resp), "\n") {
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:") && event == wire.EventState:
			var m wire.StateMsg
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &m); err != nil {
				t.Fatal(err)
			}
			states = append(states, m.State)
			if m.Tenant != tenant.AnonymousID {
				t.Fatalf("state event attributed to %q, want %q", m.Tenant, tenant.AnonymousID)
			}
		}
	}
	if strings.Join(states, " ") != wire.JobQueued+" "+wire.JobRunning {
		t.Fatalf("lifecycle events %v, want [queued running]", states)
	}
}

func readAllString(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// anonymousRow returns the anonymous tenant's /v1/stats row.
func anonymousRow(t *testing.T, st wire.Stats) wire.TenantStats {
	t.Helper()
	for _, ts := range st.Tenants {
		if ts.ID == tenant.AnonymousID {
			return ts
		}
	}
	t.Fatalf("no anonymous row in /v1/stats tenants %+v", st.Tenants)
	return wire.TenantStats{}
}

// TestSetTenantsHotReload: swapping the registry at runtime changes who
// authenticates immediately and carries new weights into live scheduler
// state — the SIGHUP path.
func TestSetTenantsHotReload(t *testing.T) {
	srv, url := testServer(t, Config{
		Tenants: testRegistry(t, []*tenant.Tenant{keyed("alice", 1, tenant.Limits{})}, nil),
	})
	ctx := context.Background()
	alice := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-alice"))
	bob := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-bob"))

	if _, err := alice.Jobs(ctx); err != nil {
		t.Fatalf("alice before reload: %v", err)
	}
	if _, err := bob.Jobs(ctx); err == nil {
		t.Fatal("bob authenticated before the reload that defines him")
	}
	// One sweep so the scheduler holds live state for alice at weight 1.
	if _, err := alice.SweepAll(ctx, []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)}); err != nil {
		t.Fatal(err)
	}

	srv.SetTenants(testRegistry(t, []*tenant.Tenant{
		keyed("alice", 3, tenant.Limits{MaxQueued: 7}),
		keyed("bob", 1, tenant.Limits{}),
	}, nil))

	if _, err := bob.Jobs(ctx); err != nil {
		t.Fatalf("bob after reload: %v", err)
	}
	st, err := alice.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range st.Tenants {
		if ts.ID == "alice" {
			found = true
			if ts.Weight != 3 {
				t.Fatalf("alice's live scheduler weight = %d after reload, want 3", ts.Weight)
			}
		}
	}
	if !found {
		t.Fatal("alice missing from stats after reload")
	}

	// A registry that drops alice locks her out at once.
	srv.SetTenants(testRegistry(t, []*tenant.Tenant{keyed("bob", 1, tenant.Limits{})}, nil))
	if _, err := alice.Jobs(ctx); err == nil {
		t.Fatal("removed tenant still authenticates")
	}
}
