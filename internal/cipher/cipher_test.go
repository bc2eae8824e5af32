package cipher

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestXTEAKnownRoundTrip(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	x, err := NewXTEA(key)
	if err != nil {
		t.Fatal(err)
	}
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	enc := make([]byte, 8)
	dec := make([]byte, 8)
	x.Encrypt(enc, src)
	if bytes.Equal(enc, src) {
		t.Fatal("encryption is identity")
	}
	x.Decrypt(dec, enc)
	if !bytes.Equal(dec, src) {
		t.Fatalf("decrypt(encrypt(x)) = %v, want %v", dec, src)
	}
}

func TestXTEARoundTripProperty(t *testing.T) {
	if err := quick.Check(func(key [16]byte, block [8]byte) bool {
		x, err := NewXTEA(key[:])
		if err != nil {
			return false
		}
		enc := make([]byte, 8)
		dec := make([]byte, 8)
		x.Encrypt(enc, block[:])
		x.Decrypt(dec, enc)
		return bytes.Equal(dec, block[:])
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXTEAKeySensitivity(t *testing.T) {
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 1
	x1, _ := NewXTEA(k1)
	x2, _ := NewXTEA(k2)
	src := []byte("8bytes!!")
	e1 := make([]byte, 8)
	e2 := make([]byte, 8)
	x1.Encrypt(e1, src)
	x2.Encrypt(e2, src)
	if bytes.Equal(e1, e2) {
		t.Fatal("different keys produced identical ciphertext")
	}
}

func TestXTEABadKeyLength(t *testing.T) {
	if _, err := NewXTEA(make([]byte, 15)); err == nil {
		t.Fatal("expected error for 15-byte key")
	}
}

func TestStreamRoundTripAllCiphers(t *testing.T) {
	msg := []byte("The Open Science Data Cloud moves terabytes between Chicago and Livermore.")
	for _, name := range []Name{None, Blowfish, TripleDES} {
		enc, err := NewStream(name, []byte("key"), []byte("iv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := NewStream(name, []byte("key"), []byte("iv"))
		if err != nil {
			t.Fatal(err)
		}
		ct := make([]byte, len(msg))
		enc.Process(ct, msg)
		if name != None && bytes.Equal(ct, msg) {
			t.Fatalf("%s: ciphertext equals plaintext", name)
		}
		pt := make([]byte, len(ct))
		dec.Process(pt, ct)
		if !bytes.Equal(pt, msg) {
			t.Fatalf("%s: round trip failed", name)
		}
	}
}

func TestStreamDifferentKeysDiffer(t *testing.T) {
	msg := make([]byte, 64)
	a, _ := NewStream(Blowfish, []byte("alpha"), []byte("iv"))
	b, _ := NewStream(Blowfish, []byte("beta"), []byte("iv"))
	ca := make([]byte, 64)
	cb := make([]byte, 64)
	a.Process(ca, msg)
	b.Process(cb, msg)
	if bytes.Equal(ca, cb) {
		t.Fatal("different keys gave identical keystreams")
	}
}

func TestStreamInPlace(t *testing.T) {
	msg := []byte("in-place encryption buffer")
	orig := append([]byte(nil), msg...)
	enc, _ := NewStream(TripleDES, []byte("k"), []byte("i"))
	dec, _ := NewStream(TripleDES, []byte("k"), []byte("i"))
	enc.Process(msg, msg)
	if bytes.Equal(msg, orig) {
		t.Fatal("in-place encryption did nothing")
	}
	dec.Process(msg, msg)
	if !bytes.Equal(msg, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestUnknownCipher(t *testing.T) {
	if _, err := NewStream("rot13", nil, nil); err == nil {
		t.Fatal("expected error for unknown cipher")
	}
}

func TestThroughputShapes(t *testing.T) {
	if ThroughputBps(None, ImplUDR) != 0 {
		t.Fatal("plaintext must be uncapped")
	}
	bfUDR := ThroughputBps(Blowfish, ImplUDR)
	desSSH := ThroughputBps(TripleDES, ImplSSH)
	if bfUDR <= desSSH {
		t.Fatal("blowfish-class must be faster than 3des-class")
	}
	// The UDR blowfish cap is what produces Table 3's ~394 Mbit/s row.
	if bfUDR < 380e6 || bfUDR > 410e6 {
		t.Fatalf("UDR blowfish cap = %v, want ~396 Mbit/s", bfUDR)
	}
}

func TestStretchDeterministicAndSized(t *testing.T) {
	a := stretch([]byte("abc"), 24)
	b := stretch([]byte("abc"), 24)
	if !bytes.Equal(a, b) {
		t.Fatal("stretch not deterministic")
	}
	if len(a) != 24 {
		t.Fatalf("len = %d, want 24", len(a))
	}
	if len(stretch(nil, 8)) != 8 {
		t.Fatal("stretch(nil) wrong size")
	}
}
