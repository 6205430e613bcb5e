package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"stormtune/internal/core"
	"stormtune/internal/storm"
)

// FuzzServeRun: no /run body crashes a worker serving one topology on
// the fluid simulator. A 2xx reply carries a result, and every other
// reply carries one of the documented Code* values.
func FuzzServeRun(f *testing.F) {
	tp := testTopo()
	h := NewSingleServer(core.AsBackend(testEval(tp)), infoFor(tp), ServerOptions{}).Handler()
	seed, err := json.Marshal(RunRequest{
		Trial:       TrialMeta{ID: 1, RunIndex: 1, Attempt: 1},
		Config:      storm.DefaultSyntheticConfig(tp, 2),
		Fingerprint: fp(tp),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		var resp RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("HTTP %d reply %q does not decode: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if rec.Code/100 == 2 {
			if resp.Result == nil {
				t.Fatalf("HTTP %d reply carries no result: %q", rec.Code, rec.Body.Bytes())
			}
			return
		}
		switch resp.Code {
		case CodeAuth, CodeUnknownFingerprint, CodeOverloaded, CodeBadRequest, CodeEvaluation, CodeAbandoned:
		default:
			t.Fatalf("HTTP %d reply has undocumented code %q: %q", rec.Code, resp.Code, rec.Body.Bytes())
		}
	})
}
