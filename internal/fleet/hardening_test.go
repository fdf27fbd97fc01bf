package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts a body with an explicit Content-Type and returns the status
// plus the decoded error payload (if any).
func postRaw(t *testing.T, url, contentType, body string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]string
	json.NewDecoder(resp.Body).Decode(&payload)
	return resp.StatusCode, payload
}

func TestServerRejectsNonJSONContentType(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	for _, ct := range []string{"text/plain", "application/xml", "multipart/form-data; boundary=x"} {
		status, payload := postRaw(t, srv.URL, ct, `{"apps":["Todo"],"kinds":["Perf"]}`)
		if status != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status = %d, want 415", ct, status)
		}
		if payload["error"] == "" || payload["code"] != CodeUnsupportedMediaType {
			t.Fatalf("Content-Type %q: body %v, want a JSON error with code %q", ct, payload, CodeUnsupportedMediaType)
		}
	}
	// Parameterized and case-varied JSON media types pass.
	for _, ct := range []string{"application/json", "application/json; charset=utf-8", "Application/JSON"} {
		status, _ := postRaw(t, srv.URL, ct, `{"apps":["Todo"],"kinds":["Perf"]}`)
		if status != http.StatusAccepted {
			t.Fatalf("Content-Type %q: status = %d, want 202", ct, status)
		}
	}
	// An absent Content-Type is tolerated (curl-without-headers ergonomics).
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sweeps",
		strings.NewReader(`{"apps":["Todo"],"kinds":["Perf"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no Content-Type: status = %d, want 202", resp.StatusCode)
	}
}

func TestServerRejectsOversizedBody(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	// A syntactically valid JSON body just past the limit: the decoder hits
	// MaxBytesReader before finishing, and the handler answers a JSON 400
	// naming the limit rather than a hung or reset connection.
	huge := `{"apps":["Todo"],"kinds":["Perf"],"phase":"` + strings.Repeat("x", maxSweepRequestBytes) + `"}`
	status, payload := postRaw(t, srv.URL, "application/json", huge)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized body: status = %d, want 400", status)
	}
	if !strings.Contains(payload["error"], "exceeds") || payload["code"] != CodeInvalidRequest {
		t.Fatalf("oversized body: %v, want the limit named with code %q", payload, CodeInvalidRequest)
	}
}

func TestServerRejectsInvalidFaultSpec(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	cases := []string{
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"dvfs":{"deny_prob":2}}}`,
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"dvfs":{"delay_prob":0.5}}}`,
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"daq":{"drop_prob":-1}}}`,
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"storm_abort":-1}}`,
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"thermal":{"ambient_c":90,"trip_c":70,"clear_c":55,"heat_c_per_sec":1,"cool_c_per_sec":1,"heat_above_mhz":1400,"cap_mhz":1100}}}`,
	}
	for _, body := range cases {
		status, payload := postRaw(t, srv.URL, "application/json", body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400", body, status)
		}
		if !strings.Contains(payload["error"], "faults:") && !strings.Contains(payload["error"], "thermal") {
			t.Fatalf("body %s: error = %q, want a fault-spec validation error", body, payload["error"])
		}
		if payload["code"] != CodeInvalidRequest {
			t.Fatalf("body %s: code = %q, want %q", body, payload["code"], CodeInvalidRequest)
		}
	}
	// A valid spec is accepted and reaches the jobs.
	status, _ := postRaw(t, srv.URL, "application/json",
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"seed":9,"dvfs":{"deny_prob":0.1}}}`)
	if status != http.StatusAccepted {
		t.Fatalf("valid fault spec: status = %d, want 202", status)
	}
}
