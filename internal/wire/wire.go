// Package wire is the one HTTP edge of the JSON planes — the operator
// plane (cloudapi), the data plane (datastore) and the state plane
// (tukeystate) — and of every listener: the response and {"error": msg}
// envelope writers, the operator header, its check and its gate, the one
// client round trip that checks the status before it decodes, and the
// one Server every listener in the deployment runs on. It imports only
// the standard library, so every layer, telemetry included, can use it.
package wire

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// OperatorHeader carries the shared operator secret on operator calls.
const OperatorHeader = "X-OSDC-Operator"

// envelope is the error body every JSON plane answers with.
type envelope struct {
	Error string `json:"error"`
}

// WriteJSON answers code with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers code with the {"error": msg} envelope.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, envelope{Error: msg})
}

// OperatorOK reports whether r carries secret in its OperatorHeader,
// compared in constant time. It is the one operator check.
func OperatorOK(secret string, r *http.Request) bool {
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(OperatorHeader)), []byte(secret)) == 1
}

// OperatorGate is the one gate in front of an operator-only plane (metrics,
// profiling): with no secret configured the plane does not exist (404), and
// a request without the matching OperatorHeader is refused (403). It
// reports whether r may go on; when not, the answer is written.
func OperatorGate(secret, plane string, w http.ResponseWriter, r *http.Request) bool {
	if secret != "" && OperatorOK(secret, r) {
		return true
	}
	code, need := http.StatusNotFound, "an operator secret"
	if secret != "" {
		code, need = http.StatusForbidden, OperatorHeader
	}
	WriteError(w, code, plane+" plane requires "+need)
	return false
}

// NewClient returns client, or when it is nil a private client whose
// round trips give up after timeout — so a hung peer surfaces as an
// error instead of holding a goroutine forever. idlePerHost > 0 gives the
// private client a transport of its own that keeps that many idle
// connections per host, for a caller with many requests in flight to
// few peers; 0 shares the default transport.
func NewClient(client *http.Client, timeout time.Duration, idlePerHost int) *http.Client {
	if client != nil {
		return client
	}
	client = &http.Client{Timeout: timeout}
	if idlePerHost > 0 {
		client.Transport = &http.Transport{MaxIdleConnsPerHost: idlePerHost}
	}
	return client
}

// Body is a response body read whole into a pooled buffer. Its bytes are
// the reader's until Release hands the buffer back for the next read.
type Body struct {
	buf bytes.Buffer
	lim io.LimitedReader
}

// bodies holds the Bodies ReadBody reads into.
var bodies = sync.Pool{New: func() any { return new(Body) }}

// maxPooledBody is the largest buffer Release keeps, so a rare large body
// does not stay pinned in the pool.
const maxPooledBody = 64 << 10

// ReadBody reads a response body whole, up to MaxBodyBytes, into a pooled
// Body: a longer body is an error, never cut short.
func ReadBody(body io.Reader) (*Body, error) {
	b := bodies.Get().(*Body)
	b.buf.Reset()
	b.lim = io.LimitedReader{R: body, N: MaxBodyBytes + 1}
	_, err := b.buf.ReadFrom(&b.lim)
	b.lim.R = nil
	if err == nil && b.buf.Len() > MaxBodyBytes {
		err = fmt.Errorf("wire: response body over %d bytes", MaxBodyBytes)
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// Bytes is the body. Nothing may keep it past Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release hands the buffer back; b must not be used after it.
func (b *Body) Release() {
	if b.buf.Cap() <= maxPooledBody {
		bodies.Put(b)
	}
}

// Call makes one JSON round trip under ctx: in is encoded as the request
// body (nil sends none), secret rides in the OperatorHeader when set, and
// the response is decoded into out (nil discards it) only when the status
// is ok. Any other status comes back with the server's envelope message,
// "" when the body carries none, and a nil error: the caller words its
// own error. err is set for a request that could not be made, a body over
// MaxBodyBytes or one that did not decode; status is 0 when no response
// arrived. The body is read to its end either way, so the connection can
// carry the next call.
func Call(ctx context.Context, client *http.Client, method, url, secret string, in, out interface{}, ok int) (status int, msg string, err error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, "", err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, "", err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if secret != "" {
		req.Header.Set(OperatorHeader, secret)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		resp.Body.Close()
	}()
	b, err := ReadBody(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	defer b.Release() // json.Unmarshal copies what it keeps
	raw := b.Bytes()
	if resp.StatusCode != ok {
		var fail envelope
		_ = json.Unmarshal(raw, &fail) // a body that is no envelope leaves msg ""
		return resp.StatusCode, fail.Error, nil
	}
	if out != nil {
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, "", err
}
