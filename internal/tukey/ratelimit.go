package tukey

import (
	"hash/fnv"
	"sync"
	"time"
)

// Limiter is the console's admission-control seam: AllowN spends cost
// tokens against key's bucket and reports whether the request is admitted.
// The in-process RateLimiter implements it; so does the state plane's
// remote client (tukeystate.RemoteLimiter), which is how N console
// replicas share one budget per user.
type Limiter interface {
	AllowN(key string, cost float64) bool
}

// SessionGate is an optional Limiter capability: resolve token in store
// and charge cost against the bucket AdmissionKey picks at now, in one
// step. The state plane's RemoteLimiter implements it so a replica admits
// a request in one round trip instead of a Get plus an AllowN. handled is
// false when the gate cannot serve this store; the console then takes the
// two-step path.
type SessionGate interface {
	Gate(store SessionStore, token string, cost float64, now time.Time) (s Session, found, admitted, handled bool)
}

// limiterShards is the bucket map's shard count. The limiter is the one
// lock every request on every replica funnels through once it moves to the
// shared state plane; the console-knee mutex profile showed the single
// bucket-map mutex as the first state-plane lock to saturate, so the map
// is split by key hash and each shard carries its own mutex.
const limiterShards = 16

// RateLimiter is a per-key token bucket: each key (a federated user) gets
// burst tokens, refilled at rate tokens per second; a request spends one.
// It is the console's admission control — the paper's operational lesson
// that "even basic billing and accounting are effective limiting bad
// behavior" applied to request traffic: one hot researcher can no longer
// consume the whole request budget (ROADMAP: per-user rate limiting).
type RateLimiter struct {
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	maxKeys int     // eviction threshold for the bucket maps (total)

	now    func() time.Time // test hook; time.Now when nil
	shards [limiterShards]limiterShard
}

// limiterShard is one slice of the key space with its own lock.
type limiterShard struct {
	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// defaultMaxKeys bounds the bucket maps. Keys include attempted /login
// usernames — attacker-chosen, unauthenticated strings — so the maps must
// not grow with the number of distinct keys ever seen, only with the keys
// active inside one refill window.
const defaultMaxKeys = 1 << 16

// NewRateLimiter builds a limiter allowing rate requests/second per key
// with bursts up to burst. burst below 1 is raised to 1 (a bucket that can
// never hold a whole token admits nothing).
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	rl := &RateLimiter{rate: rate, burst: burst, maxKeys: defaultMaxKeys}
	for i := range rl.shards {
		rl.shards[i].buckets = make(map[string]*tokenBucket)
	}
	return rl
}

// shardFor hashes key onto its shard.
func (rl *RateLimiter) shardFor(key string) *limiterShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &rl.shards[h.Sum32()%limiterShards]
}

// shardMaxKeys is the per-shard slice of the total key cap (at least 1).
func (rl *RateLimiter) shardMaxKeys() int {
	per := rl.maxKeys / limiterShards
	if per < 1 {
		per = 1
	}
	return per
}

// evictStaleLocked drops buckets idle long enough to have refilled to
// burst — for those, forgetting the bucket is observably identical to
// keeping it (a fresh bucket starts full). Callers hold sh.mu.
func (rl *RateLimiter) evictStaleLocked(sh *limiterShard, now time.Time) {
	if rl.rate <= 0 {
		// Buckets never refill: nothing is ever safely forgettable, so
		// fall back to dropping everything (test-only configuration).
		sh.buckets = make(map[string]*tokenBucket)
		return
	}
	idle := time.Duration(rl.burst / rl.rate * float64(time.Second))
	for k, b := range sh.buckets {
		if now.Sub(b.last) >= idle {
			delete(sh.buckets, k)
		}
	}
}

func (rl *RateLimiter) wallNow() time.Time {
	if rl.now != nil {
		return rl.now()
	}
	return time.Now()
}

// Allow spends one token from key's bucket, reporting whether one was
// available. New keys start with a full bucket.
func (rl *RateLimiter) Allow(key string) bool { return rl.AllowN(key, 1) }

// AllowN spends cost tokens from key's bucket — the route-weighted form: a
// launch charges several tokens where a status read charges one, so the
// same bucket throttles expensive operations harder (ROADMAP: per-route
// rate-limit costs). Costs below 1 are raised to 1; a cost above the
// bucket capacity is clamped to it, so a full bucket always admits the
// request (otherwise the route could never be called at all).
func (rl *RateLimiter) AllowN(key string, cost float64) bool {
	if cost < 1 {
		cost = 1
	}
	if cost > rl.burst {
		cost = rl.burst
	}
	now := rl.wallNow()
	sh := rl.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.buckets[key]
	if !ok {
		cap := rl.shardMaxKeys()
		if len(sh.buckets) >= cap {
			rl.evictStaleLocked(sh, now)
		}
		b = &tokenBucket{tokens: rl.burst, last: now}
		// Hard cap: if every existing bucket is genuinely active, admit
		// this first-time key (a fresh bucket always has a token) without
		// remembering it rather than growing without bound.
		if len(sh.buckets) < cap {
			sh.buckets[key] = b
		}
	} else {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * rl.rate
			if b.tokens > rl.burst {
				b.tokens = rl.burst
			}
		}
		b.last = now
	}
	if b.tokens >= cost {
		b.tokens -= cost
		return true
	}
	return false
}

// Keys reports how many distinct keys hold buckets (a gauge for tests and
// status pages).
func (rl *RateLimiter) Keys() int {
	n := 0
	for i := range rl.shards {
		sh := &rl.shards[i]
		sh.mu.Lock()
		n += len(sh.buckets)
		sh.mu.Unlock()
	}
	return n
}
