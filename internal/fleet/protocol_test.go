package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drapid/internal/obs"
	"drapid/internal/spe"
)

// TestBlobDispatchUploadsOnce pins the tentpole economics: a v2 worker
// receives the observation body exactly once per cache lifetime — every
// DM shard of the first job and the whole of a second job over the same
// observation ship digest-only specs.
func TestBlobDispatchUploadsOnce(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}

	cache := NewBlobCache(0, obs.NewRegistry())
	var blobPuts, shardBytes atomic.Int64
	inner := NewHandler(testExec(), cache)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			blobPuts.Add(1)
		}
		if r.Method == http.MethodPost {
			shardBytes.Add(r.ContentLength)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	remote := NewRemote("w0", ts.URL, nil, WithWireMetrics(reg))
	run := func(job string) {
		t.Helper()
		for _, s := range PlanDM(job, raw, dms, search, 4) {
			if _, err := remote.Run(context.Background(), s, func([]spe.SPE) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	run("job-a")
	run("job-b")
	if n := blobPuts.Load(); n != 1 {
		t.Fatalf("observation uploaded %d times over 8 shards of 2 jobs, want exactly 1", n)
	}
	// Every POST body must be a lean spec: orders of magnitude under the
	// base64-inflated inline encoding.
	if lean := shardBytes.Load() / 8; lean > int64(len(raw))/10 {
		t.Fatalf("mean shard POST of %d bytes is not lean against a %d-byte observation", lean, len(raw))
	}
	if hits := cache.hits; hits == nil || hits.Value() < 8 {
		t.Fatalf("blob cache hits = %v, want >= 8 (one per dispatched shard)", hits.Value())
	}
}

// TestBlobEvictionReupload pins the 412 path: when the worker evicts a
// blob the coordinator still believes resident, the next dispatch gets
// 412, re-uploads, and succeeds — no failed attempt, no inline fallback.
func TestBlobEvictionReupload(t *testing.T) {
	_, raw := testObservation(t)
	dms := testGrid()
	search := SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}
	shards := PlanDM("job", raw, dms, search, 2)

	// Bound the cache to just over one observation, so a filler Put
	// evicts the real blob between dispatches.
	cache := NewBlobCache(int64(len(raw))+1024, nil)
	ts := httptest.NewServer(NewHandler(testExec(), cache))
	defer ts.Close()
	remote := NewRemote("w0", ts.URL, nil)

	if _, err := remote.Run(context.Background(), shards[0], func([]spe.SPE) error { return nil }); err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte{0xA5}, len(raw))
	if err := cache.Put(Digest(filler), filler); err != nil {
		t.Fatal(err)
	}
	if cache.Contains(shards[1].FilterbankDigest) {
		t.Fatal("filler did not evict the observation blob")
	}
	if _, err := remote.Run(context.Background(), shards[1], func([]spe.SPE) error { return nil }); err != nil {
		t.Fatalf("dispatch after worker-side eviction: %v", err)
	}
	if !cache.Contains(shards[1].FilterbankDigest) {
		t.Fatal("blob was not re-uploaded after the 412")
	}
}

// TestFramedStreamCut pins the completion contract on the binary path:
// a frame stream cut before its terminator fails the attempt.
func TestFramedStreamCut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusNoContent) // the blob is "resident"
			return
		}
		w.Header().Set("Content-Type", MediaFrames)
		w.WriteHeader(http.StatusOK)
		fw := &frameWriter{w: w}
		fw.writeEvents([]spe.SPE{{DM: 1, SNR: 9, Time: 0.5, Sample: 10, Downfact: 1}})
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler) // cut before the stats trailer
	}))
	defer ts.Close()
	remote := NewRemote("cut", ts.URL, nil)
	_, err := remote.Run(context.Background(), fakeSpec(), func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("cut frame stream: err = %v, want stream failure", err)
	}
}

// fakeSpec is a minimal valid spec for fake servers, which never read
// the observation its digest names.
func fakeSpec() ShardSpec {
	return ShardSpec{Job: "j", Shards: 1, FilterbankDigest: Digest(nil), DMs: []float64{0}}
}

// TestPingChecksProtocol pins the protocol version check: a worker whose
// ping does not report this protocol fails Ping, and WaitReady surfaces
// that error instead of a bare timeout.
func TestPingChecksProtocol(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer old.Close()
	remote := NewRemote("old", old.URL, nil)
	const want = "fleet: worker old speaks shard protocol 0, want 2"
	if err := remote.Ping(context.Background()); err == nil || err.Error() != want {
		t.Fatalf("Ping against a worker without proto: err = %v, want %q", err, want)
	}
	if err := WaitReady(context.Background(), remote, 100*time.Millisecond); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("WaitReady: err = %v, want it to carry %q", err, want)
	}

	cur := httptest.NewServer(Handler(testExec()))
	defer cur.Close()
	if err := WaitReady(context.Background(), NewRemote("cur", cur.URL, nil), time.Second); err != nil {
		t.Fatalf("WaitReady against a current worker: %v", err)
	}
}

// TestShardPOSTBounds pins the admission of shard specs: an oversized
// body is 413, a spec with no or a malformed digest is 400, and none of
// them disturbs the worker, which still serves a good shard afterwards.
func TestShardPOSTBounds(t *testing.T) {
	_, raw := testObservation(t)
	ts := httptest.NewServer(NewHandler(testExec(), NewBlobCache(0, nil)))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"oversized", append([]byte(`{"job":"`), bytes.Repeat([]byte("a"), maxShardSpecBytes)...), http.StatusRequestEntityTooLarge},
		{"no digest", []byte(`{"job":"j","dms":[0,1]}`), http.StatusBadRequest},
		{"bad digest", []byte(`{"job":"j","filterbank_digest":"ABC","dms":[0,1]}`), http.StatusBadRequest},
		{"not json", []byte(`{"job":`), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}, 2)
	if _, err := NewRemote("w0", ts.URL, nil).Run(context.Background(), shards[0], func([]spe.SPE) error { return nil }); err != nil {
		t.Fatalf("good shard after rejected specs: %v", err)
	}
}

// TestRefusedBlobUpload pins the one way an observation can fail to
// reach a worker: a blob cache smaller than the observation refuses the
// upload, and the attempt fails naming the size and the flag to raise —
// no shard POST is ever sent.
func TestRefusedBlobUpload(t *testing.T) {
	_, raw := testObservation(t)
	shards := PlanDM("job", raw, testGrid(), SearchSpec{Threshold: 6, Plan: "brute", NormWindow: 1024}, 1)

	inner := NewHandler(testExec(), NewBlobCache(int64(len(raw))/2, nil))
	var postBytes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			n, _ := io.Copy(io.Discard, r.Body)
			postBytes.Add(n)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	_, err := NewRemote("small", ts.URL, nil).Run(context.Background(), shards[0], func([]spe.SPE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(len(raw))+"-byte") || !strings.Contains(err.Error(), "-blob-cache") {
		t.Fatalf("refused upload: err = %v, want the %d-byte size and -blob-cache named", err, len(raw))
	}
	if n := postBytes.Load(); n != 0 {
		t.Fatalf("refused upload still POSTed %d shard bytes", n)
	}
}

// FuzzShardSpec feeds arbitrary bytes through the worker's spec
// admission: decoding and validating must never panic, and a spec that
// validates must name its observation by a well-formed digest.
func FuzzShardSpec(f *testing.F) {
	good, _ := json.Marshal(ShardSpec{Job: "j", Index: 1, Shards: 2, FilterbankDigest: Digest([]byte("obs")),
		DMs: []float64{0, 1, 2}, TrialLo: 1, TrialHi: 3})
	f.Add(good)
	f.Add([]byte(`{"job":"j","dms":[0]}`))
	f.Add([]byte(`{"filterbank_digest":"zz","dms":[],"own_lo":5,"own_hi":2}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ShardSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Validate() == nil {
			if err := ValidDigest(spec.FilterbankDigest); err != nil {
				t.Fatalf("Validate accepted a spec with digest %q: %v", spec.FilterbankDigest, err)
			}
			if len(spec.Filterbank) != 0 {
				t.Fatal("a decoded spec carried observation bytes")
			}
		}
	})
}
