package dash

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stormtune/internal/core"
	"stormtune/internal/storm"
)

func trial(id int) core.Trial {
	return core.Trial{ID: id, RunIndex: id, Config: storm.Config{Hints: []int{id}}}
}

func feed(r *core.Recorder, n int) {
	for i := 1; i <= n; i++ {
		r.OnEvent(core.TrialStarted{Trial: trial(i)})
		r.OnEvent(core.TrialCompleted{Trial: trial(i), Result: storm.Result{Throughput: float64(100 * i)}})
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New(core.NewRecorder(), Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

func TestStateJSON(t *testing.T) {
	rec := core.NewRecorder()
	feed(rec, 3)
	h := New(rec, Options{
		Title: "test run",
		Info:  map[string]any{"topology": "small"},
		PoolStats: func() []WorkerStats {
			return []WorkerStats{{Worker: "http://w1", InFlight: 1, Completed: 2}}
		},
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Title != "test run" || len(st.Trials) != 3 || st.Best != 300 {
		t.Fatalf("state: %+v", st)
	}
	if st.Info["topology"] != "small" {
		t.Fatalf("info: %+v", st.Info)
	}
	if len(st.Workers) != 1 || st.Workers[0].Worker != "http://w1" || st.Workers[0].InFlight != 1 {
		t.Fatalf("workers: %+v", st.Workers)
	}
	if len(st.Incumbent) != 3 || st.Incumbent[2].Best != 300 {
		t.Fatalf("incumbent: %+v", st.Incumbent)
	}
}

func TestIndexPage(t *testing.T) {
	srv := httptest.NewServer(New(core.NewRecorder(), Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "<!DOCTYPE html>") {
		t.Fatalf("index: HTTP %d, body %q…", resp.StatusCode, body[:min(80, len(body))])
	}
	// Anything else under / is not the page.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope: HTTP %d", resp2.StatusCode)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id, kind, data string
}

// sseReader pumps one response body on a single goroutine so repeated
// reads off the same stream don't race on the buffered reader.
type sseReader struct {
	lines chan string
	errc  chan error
}

func newSSEReader(body io.Reader) *sseReader {
	r := &sseReader{lines: make(chan string), errc: make(chan error, 1)}
	br := bufio.NewReader(body)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				r.errc <- err
				return
			}
			r.lines <- strings.TrimRight(line, "\n")
		}
	}()
	return r
}

// read parses frames off the stream until the predicate says stop, the
// stream ends, or the timeout hits.
func (r *sseReader) read(t *testing.T, stop func(sseEvent) bool, timeout time.Duration) []sseEvent {
	t.Helper()
	done := time.After(timeout)
	var out []sseEvent
	cur := sseEvent{}
	for {
		select {
		case <-done:
			t.Fatalf("SSE timeout; got %d events so far: %+v", len(out), out)
		case <-r.errc:
			return out
		case line := <-r.lines:
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				cur.kind = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[len("data: "):]
			case line == "" && cur.kind != "":
				out = append(out, cur)
				if stop(cur) {
					return out
				}
				cur = sseEvent{}
			}
		}
	}
}

// TestSSEReplayFromID subscribes after some history exists and checks
// that ?after=N replays exactly the suffix, that live events follow,
// and that the stream says goodbye once the session completes.
func TestSSEReplayFromID(t *testing.T) {
	rec := core.NewRecorder()
	feed(rec, 3) // 6 events: seq 1..6
	srv := httptest.NewServer(New(rec, Options{}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/events?after=4", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	br := newSSEReader(resp.Body)

	// Replayed suffix: seq 5 and 6.
	replay := br.read(t, func(e sseEvent) bool { return e.id == "6" }, 10*time.Second)
	if len(replay) != 2 || replay[0].id != "5" || replay[1].id != "6" {
		t.Fatalf("replay after 4: %+v", replay)
	}
	if replay[1].kind != core.KindTrialCompleted {
		t.Fatalf("seq 6 kind %q", replay[1].kind)
	}
	var ev core.RecordedEvent
	if err := json.Unmarshal([]byte(replay[1].data), &ev); err != nil {
		t.Fatalf("seq 6 data: %v", err)
	}
	if ev.Seq != 6 || ev.TrialID != 3 || ev.Throughput != 300 {
		t.Fatalf("seq 6 payload: %+v", ev)
	}

	// A live event arrives on the open stream.
	rec.OnEvent(core.TrialStarted{Trial: trial(4)})
	live := br.read(t, func(e sseEvent) bool { return e.id == "7" }, 10*time.Second)
	if len(live) != 1 || live[0].kind != core.KindTrialStarted {
		t.Fatalf("live event: %+v", live)
	}

	// Completion: pass_completed then the terminal done event, after
	// which the server closes the stream.
	rec.OnEvent(core.PassCompleted{Steps: 4, Found: true})
	tail := br.read(t, func(e sseEvent) bool { return e.kind == "done" }, 10*time.Second)
	kinds := make([]string, len(tail))
	for i, e := range tail {
		kinds[i] = e.kind
	}
	if len(tail) < 2 || kinds[len(kinds)-2] != core.KindPassCompleted || kinds[len(kinds)-1] != "done" {
		t.Fatalf("tail kinds: %v", kinds)
	}
}

// TestSSELastEventIDHeader checks the standard reconnect header is an
// accepted replay cursor too.
func TestSSELastEventIDHeader(t *testing.T) {
	rec := core.NewRecorder()
	feed(rec, 2) // seq 1..4
	rec.OnEvent(core.PassCompleted{Steps: 2, Found: true})
	srv := httptest.NewServer(New(rec, Options{}))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/events", nil)
	req.Header.Set("Last-Event-ID", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := newSSEReader(resp.Body).read(t, func(e sseEvent) bool { return e.kind == "done" }, 10*time.Second)
	// seq 4 (trial_completed), seq 5 (pass_completed), done.
	if len(evs) != 3 || evs[0].id != "4" {
		t.Fatalf("replay after Last-Event-ID 3: %+v", evs)
	}
}

func TestSSEBadAfter(t *testing.T) {
	srv := httptest.NewServer(New(core.NewRecorder(), Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/events?after=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad after: HTTP %d", resp.StatusCode)
	}
}
