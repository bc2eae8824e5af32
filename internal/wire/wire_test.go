package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCallRoundTrip: the body goes out as JSON with the operator header,
// the wanted status is decoded, and any other status hands back the
// envelope's message without touching out — "" when there is none. A
// call whose context has ended gets no response.
func TestCallRoundTrip(t *testing.T) {
	type msg struct {
		N int `json:"n"`
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/echo":
			if !OperatorOK("s3", r) || r.Header.Get("Content-Type") != "application/json" {
				WriteError(w, http.StatusForbidden, "no secret")
				return
			}
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
		case "/refuse":
			WriteError(w, http.StatusConflict, `refused "x" <y>`)
		default:
			http.Error(w, "plain text", http.StatusBadGateway)
		}
	}))
	defer srv.Close()
	client := NewClient(nil, 0, 0)
	ctx := context.Background()

	var out msg
	status, text, err := Call(ctx, client, http.MethodPost, srv.URL+"/echo", "s3", msg{N: 7}, &out, http.StatusOK)
	if status != http.StatusOK || text != "" || err != nil || out.N != 7 {
		t.Fatalf("echo = %d %q %v, out %+v", status, text, err, out)
	}
	if status, text, err = Call(ctx, client, http.MethodPost, srv.URL+"/echo", "", msg{N: 1}, &out, http.StatusOK); status != http.StatusForbidden || text != "no secret" || err != nil {
		t.Fatalf("echo without the secret = %d %q %v", status, text, err)
	}
	out = msg{}
	if status, text, err = Call(ctx, client, http.MethodGet, srv.URL+"/refuse", "", nil, &out, http.StatusOK); status != http.StatusConflict || text != `refused "x" <y>` || err != nil || out.N != 0 {
		t.Fatalf("refuse = %d %q %v, out %+v", status, text, err, out)
	}
	if status, text, err = Call(ctx, client, http.MethodGet, srv.URL+"/plain", "", nil, &out, http.StatusOK); status != http.StatusBadGateway || text != "" || err != nil {
		t.Fatalf("plain = %d %q %v", status, text, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if status, _, err = Call(cancelled, client, http.MethodGet, srv.URL+"/echo", "", nil, nil, http.StatusOK); status != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %d %v, want no response and context.Canceled", status, err)
	}
	srv.Close()
	if status, _, err = Call(ctx, client, http.MethodGet, srv.URL+"/echo", "", nil, nil, http.StatusOK); status != 0 || err == nil {
		t.Fatalf("closed server = %d %v, want a transport error", status, err)
	}
}

// TestReadBodyRefusesPastMax: a body of exactly MaxBodyBytes reads whole;
// one byte more is an error, not a body cut short.
func TestReadBodyRefusesPastMax(t *testing.T) {
	b, err := ReadBody(strings.NewReader(strings.Repeat("x", MaxBodyBytes)))
	if err != nil {
		t.Fatalf("a body of MaxBodyBytes: %v", err)
	}
	if n := len(b.Bytes()); n != MaxBodyBytes {
		t.Fatalf("a body of MaxBodyBytes read as %d bytes", n)
	}
	b.Release()
	if b, err := ReadBody(strings.NewReader(strings.Repeat("x", MaxBodyBytes+1))); err == nil {
		t.Fatalf("a body over MaxBodyBytes read as %d bytes, want an error", len(b.Bytes()))
	}
}

// TestCallRefusesBodyPastMax: an answer of MaxBodyBytes+1 bytes is an
// error on the wanted status and on any other, never a decode of the
// value it starts with.
func TestCallRefusesBodyPastMax(t *testing.T) {
	const value = `{"error":"refused","n":7}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/refuse" {
			w.WriteHeader(http.StatusConflict)
		}
		fmt.Fprint(w, value, strings.Repeat(" ", MaxBodyBytes+1-len(value)))
	}))
	defer srv.Close()
	client := NewClient(nil, 0, 0)
	var out struct {
		N int `json:"n"`
	}
	if status, msg, err := Call(context.Background(), client, http.MethodGet, srv.URL+"/ok", "", nil, &out, http.StatusOK); status != http.StatusOK || msg != "" || err == nil || out.N != 0 {
		t.Errorf("an answer over MaxBodyBytes = %d %q %v, out %+v; want an error and out untouched", status, msg, err, out)
	}
	if status, msg, err := Call(context.Background(), client, http.MethodGet, srv.URL+"/refuse", "", nil, &out, http.StatusOK); status != http.StatusConflict || msg != "" || err == nil {
		t.Errorf("a refusal over MaxBodyBytes = %d %q %v; want an error and no message", status, msg, err)
	}
}
