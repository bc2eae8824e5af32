package tukey

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRateLimiterBurstThenRefill(t *testing.T) {
	clock := time.Unix(1_350_000_000, 0)
	rl := NewRateLimiter(2, 3) // 2 tokens/s, burst 3
	rl.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if !rl.AllowN("alice", 1) {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	if rl.AllowN("alice", 1) {
		t.Fatal("4th request allowed with empty bucket")
	}

	// Half a second refills one token at 2/s.
	clock = clock.Add(500 * time.Millisecond)
	if !rl.AllowN("alice", 1) {
		t.Fatal("refilled token denied")
	}
	if rl.AllowN("alice", 1) {
		t.Fatal("second request allowed after a one-token refill")
	}

	// A long idle period caps at burst, not at elapsed × rate.
	clock = clock.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !rl.AllowN("alice", 1) {
			t.Fatalf("request %d after refill-to-burst denied", i)
		}
	}
	if rl.AllowN("alice", 1) {
		t.Fatal("bucket exceeded burst after idling")
	}
}

func TestRateLimiterKeysAreIndependent(t *testing.T) {
	clock := time.Unix(1_350_000_000, 0)
	rl := NewRateLimiter(1, 1)
	rl.now = func() time.Time { return clock }
	if !rl.AllowN("alice", 1) {
		t.Fatal("alice's first request denied")
	}
	if rl.AllowN("alice", 1) {
		t.Fatal("alice's second request allowed")
	}
	// Alice's exhaustion must not touch bob.
	if !rl.AllowN("bob", 1) {
		t.Fatal("bob denied because alice was hot")
	}
	if rl.Keys() != 2 {
		t.Fatalf("keys = %d, want 2", rl.Keys())
	}
}

func TestRateLimiterMinimumBurst(t *testing.T) {
	rl := NewRateLimiter(10, 0) // burst raised to 1
	if !rl.AllowN("x", 1) {
		t.Fatal("burst<1 bucket admits nothing")
	}
}

func TestRateLimiterConcurrentAccounting(t *testing.T) {
	clock := time.Unix(1_350_000_000, 0)
	rl := NewRateLimiter(0, 100) // no refill: exactly 100 admits per key
	rl.now = func() time.Time { return clock }
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 1000)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if rl.AllowN("shared", 1) {
					admitted <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for range admitted {
		n++
	}
	if n != 100 {
		t.Fatalf("admitted %d of 1000 concurrent requests, want exactly burst=100", n)
	}
}

// TestRateLimiterBoundsKeySpace floods the limiter with unique
// attacker-chosen keys (the /login username surface) and checks the
// bucket map stays bounded: stale buckets are evicted once the cap is
// reached, and the map never exceeds it.
func TestRateLimiterBoundsKeySpace(t *testing.T) {
	clock := time.Unix(1_350_000_000, 0)
	rl := NewRateLimiter(100, 1) // idle window: 1/100 s
	rl.now = func() time.Time { return clock }
	rl.maxKeys = 64
	for i := 0; i < 10_000; i++ {
		if !rl.AllowN(fmt.Sprintf("attacker-%06d", i), 1) {
			t.Fatalf("fresh key %d denied", i)
		}
		if rl.Keys() > 64 {
			t.Fatalf("bucket map grew to %d keys past the %d cap", rl.Keys(), 64)
		}
		// Every 64th key, everything older has idled past burst/rate and
		// becomes forgettable.
		clock = clock.Add(time.Millisecond)
	}
	// A hot key that stays inside the window is still limited even while
	// the sweep churns.
	if !rl.AllowN("hot", 1) {
		t.Fatal("hot key's first request denied")
	}
	if rl.AllowN("hot", 1) {
		t.Fatal("hot key's second immediate request allowed (burst 1)")
	}
}

// TestConsoleThrottlesTokenGuessing sweeps sequential session tokens (the
// enumerable "tukey-sess-%06d" space) and checks the 401s turn into 429s
// once the shared invalid-session bucket drains — while a valid session
// keeps working.
func TestConsoleThrottlesTokenGuessing(t *testing.T) {
	r := newRig(t)
	clock := time.Unix(1_350_000_000, 0)
	limiter := NewRateLimiter(1, 3)
	limiter.now = func() time.Time { return clock }
	console := &Console{MW: r.mw, Limiter: limiter}
	srv := httptest.NewServer(console)
	t.Cleanup(srv.Close)
	tok := consoleLogin(t, srv)

	got429 := false
	for i := 0; i < 5; i++ {
		resp := consoleDo(t, srv, "GET", "/console/instances", fmt.Sprintf("tukey-sess-%06d", 900+i), "")
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusUnauthorized: // inside the shared burst
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("guess %d status = %d", i, resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatal("sequential token sweep never throttled")
	}
	// The legitimate session is unaffected by the guessing storm.
	resp := consoleDo(t, srv, "GET", "/console/status", tok, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid session status = %d during guess storm, want 200", resp.StatusCode)
	}
}

// TestConsoleRateLimit429 runs the limiter through the console: the hot
// researcher is rejected with 429 on both /login and session routes while
// their session stays valid.
func TestConsoleRateLimit429(t *testing.T) {
	r := newRig(t)
	clock := time.Unix(1_350_000_000, 0)
	limiter := NewRateLimiter(1, 2)
	limiter.now = func() time.Time { return clock }
	console := &Console{MW: r.mw, Limiter: limiter}
	srv := httptest.NewServer(console)
	t.Cleanup(srv.Close)

	tok := consoleLogin(t, srv) // 1 token spent on alice's login bucket

	// alice@uchicago.edu has a fresh identity bucket: 2 requests pass,
	// the third 429s.
	statuses := []int{}
	for i := 0; i < 3; i++ {
		resp := consoleDo(t, srv, "GET", "/console/status", tok, "")
		statuses = append(statuses, resp.StatusCode)
		resp.Body.Close()
	}
	want := []int{http.StatusOK, http.StatusOK, http.StatusTooManyRequests}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("request %d status = %d, want %d (all: %v)", i, statuses[i], want[i], statuses)
		}
	}
	if console.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", console.RateLimited)
	}

	// The 429 did not invalidate the session: after refill the token
	// still works.
	clock = clock.Add(2 * time.Second)
	resp := consoleDo(t, srv, "GET", "/console/status", tok, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill status = %d, want 200", resp.StatusCode)
	}

	// Login brute force is bounded per attempted username: alice's login
	// bucket (refilled to its burst of 2 by the clock jump above) admits
	// two bad attempts, then 429s regardless of the password being wrong.
	body := `{"provider":"shibboleth","username":"alice","secret":"nope"}`
	wantLogin := []int{http.StatusUnauthorized, http.StatusUnauthorized, http.StatusTooManyRequests}
	for i, wantCode := range wantLogin {
		resp, err := http.Post(srv.URL+"/login", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("bad login %d status = %d, want %d", i, resp.StatusCode, wantCode)
		}
	}
}
