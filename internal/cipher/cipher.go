// Package cipher provides the encryption layers used in the paper's
// Table 3 transfer experiments: none, "blowfish" and 3des.
//
// Two aspects matter for the reproduction:
//
//  1. Correctness — data must round-trip through a real cipher. 3DES comes
//     from the standard library. Blowfish is not in the standard library
//     and its S-boxes (4 KB of hexadecimal π) cannot be reproduced from
//     first principles offline, so XTEA — a real 64-bit-block cipher with
//     trivially-derivable constants — stands in for it. Both run in CTR
//     mode so they behave as stream ciphers, like the transports use them.
//  2. Throughput — on 2012-era hardware single-threaded cipher speed is
//     what capped encrypted transfers. The Profile table records the
//     bits-per-second each (cipher, implementation) pair sustains, which
//     the transfer simulations consume as pipeline caps.
package cipher

import (
	stdcipher "crypto/cipher"
	"crypto/des"
	"encoding/binary"
	"fmt"
)

// Name identifies a cipher choice on the UDR/rsync command line.
type Name string

// The cipher names from Table 3.
const (
	None      Name = "none"
	Blowfish  Name = "blowfish" // implemented by XTEA-CTR, see package doc
	TripleDES Name = "3des"
)

// Stream encrypts or decrypts a byte stream in place-compatible fashion
// (CTR mode: the same transform both directions).
type Stream interface {
	// Process applies the keystream: dst[i] = src[i] XOR ks[i]. dst and src
	// may alias. len(dst) must be >= len(src).
	Process(dst, src []byte)
}

// NewStream builds a stream for the named cipher. key material is stretched
// or truncated to the cipher's key size; iv seeds the CTR counter.
func NewStream(name Name, key, iv []byte) (Stream, error) {
	switch name {
	case None:
		return noneStream{}, nil
	case Blowfish:
		b, err := NewXTEA(stretch(key, 16))
		if err != nil {
			return nil, err
		}
		return &ctrStream{ctr: stdcipher.NewCTR(b, stretch(iv, b.BlockSize()))}, nil
	case TripleDES:
		b, err := des.NewTripleDESCipher(stretch(key, 24))
		if err != nil {
			return nil, err
		}
		return &ctrStream{ctr: stdcipher.NewCTR(b, stretch(iv, b.BlockSize()))}, nil
	default:
		return nil, fmt.Errorf("cipher: unknown cipher %q", name)
	}
}

// stretch repeats or truncates b to exactly n bytes (never all-zero).
func stretch(b []byte, n int) []byte {
	out := make([]byte, n)
	if len(b) == 0 {
		b = []byte{0x5a}
	}
	for i := range out {
		out[i] = b[i%len(b)] ^ byte(i*131)
	}
	return out
}

type noneStream struct{}

func (noneStream) Process(dst, src []byte) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
}

type ctrStream struct {
	ctr stdcipher.Stream
}

func (c *ctrStream) Process(dst, src []byte) {
	c.ctr.XORKeyStream(dst, src)
}

// XTEA is the 64-round XTEA block cipher (Needham & Wheeler). 8-byte block,
// 16-byte key. It implements crypto/cipher.Block.
type XTEA struct {
	k [4]uint32
}

const xteaDelta = 0x9E3779B9
const xteaRounds = 32 // 32 cycles = 64 Feistel rounds

// NewXTEA returns an XTEA block cipher with a 16-byte key.
func NewXTEA(key []byte) (*XTEA, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("cipher: XTEA key must be 16 bytes, got %d", len(key))
	}
	var x XTEA
	for i := 0; i < 4; i++ {
		x.k[i] = binary.BigEndian.Uint32(key[i*4:])
	}
	return &x, nil
}

// BlockSize implements cipher.Block.
func (x *XTEA) BlockSize() int { return 8 }

// Encrypt implements cipher.Block.
func (x *XTEA) Encrypt(dst, src []byte) {
	v0 := binary.BigEndian.Uint32(src[0:])
	v1 := binary.BigEndian.Uint32(src[4:])
	var sum uint32
	for i := 0; i < xteaRounds; i++ {
		v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + x.k[sum&3])
		sum += xteaDelta
		v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + x.k[(sum>>11)&3])
	}
	binary.BigEndian.PutUint32(dst[0:], v0)
	binary.BigEndian.PutUint32(dst[4:], v1)
}

// Decrypt implements cipher.Block.
func (x *XTEA) Decrypt(dst, src []byte) {
	v0 := binary.BigEndian.Uint32(src[0:])
	v1 := binary.BigEndian.Uint32(src[4:])
	sum := uint32(0xC6EF3720) // xteaDelta × xteaRounds mod 2³²
	for i := 0; i < xteaRounds; i++ {
		v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + x.k[(sum>>11)&3])
		sum -= xteaDelta
		v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + x.k[sum&3])
	}
	binary.BigEndian.PutUint32(dst[0:], v0)
	binary.BigEndian.PutUint32(dst[4:], v1)
}

// Impl identifies which program's cipher implementation is running; their
// measured speeds differed (UDR linked a tuned Blowfish; ssh's 3des was the
// slow OpenSSL path).
type Impl string

// Implementations appearing in Table 3.
const (
	ImplUDR Impl = "udr"
	ImplSSH Impl = "ssh" // rsync tunnels over ssh when encrypting
)

// ThroughputBps returns the sustained single-threaded cipher throughput in
// bits/s for the (cipher, impl) pair on the paper's 2012-era hardware.
// 0 means unlimited (no cipher stage). These are calibration constants; the
// shapes they encode are: Blowfish-class ciphers run ~400 Mbit/s per core,
// 3des-class ~300 Mbit/s, and plaintext is free.
func ThroughputBps(name Name, impl Impl) float64 {
	switch {
	case name == None:
		return 0
	case name == Blowfish && impl == ImplUDR:
		return 396e6
	case name == Blowfish && impl == ImplSSH:
		return 430e6
	case name == TripleDES && impl == ImplSSH:
		return 310e6
	case name == TripleDES && impl == ImplUDR:
		return 300e6
	default:
		return 350e6
	}
}
