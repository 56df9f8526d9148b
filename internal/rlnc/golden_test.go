package rlnc

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"asymshare/internal/gf"
)

// goldenData returns n deterministic bytes: SHA-256 in counter mode
// over a fixed label, independent of any PRNG implementation.
func goldenData(n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	var ctr [8]byte
	for i := uint64(0); len(out) < n; i++ {
		binary.BigEndian.PutUint64(ctr[:], i)
		h := sha256.Sum256(append([]byte("asymshare golden data "), ctr[:]...))
		out = append(out, h[:]...)
	}
	return out[:n]
}

// TestBatchForPeerGoldenVectors pins the bytes the encoder emits for a
// fixed secret and data. Stored messages and the digests published in
// handles are these bytes, so a kernel change that alters them would
// orphan data already on disk: the expected digests must never change.
func TestBatchForPeerGoldenVectors(t *testing.T) {
	cases := []struct {
		bits uint
		k, m int
		want string
	}{
		{gf.Bits4, 12, 1200, "b7586cbec1e79dc6b6f53863ea8a2eca"},
		{gf.Bits8, 12, 600, "c5eeb1986eed93b38c2671843ebdc49b"},
		{gf.Bits8, 64, 1000, "ec727c2b693d01931292fd61b33d431b"},
		{gf.Bits16, 12, 300, "afeccce3e5df859e74f6d01cfa0a623d"},
		{gf.Bits32, 12, 150, "e0c45e34f617994fecf56ad08ef87f86"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("p%d/k%d", tc.bits, tc.k), func(t *testing.T) {
			f := gf.MustNew(tc.bits)
			cb := gf.VecBytes(tc.bits, tc.m)
			data := goldenData(tc.k*cb - 37) // last chunk zero-padded
			params := mustParams(t, f, tc.k, tc.m, len(data))
			enc, err := NewEncoder(params, 0x5eed, testSecret(), data)
			if err != nil {
				t.Fatal(err)
			}
			h := md5.New()
			for peer := 0; peer < 2; peer++ {
				batch, err := enc.BatchForPeer(peer, tc.k)
				if err != nil {
					t.Fatal(err)
				}
				for _, msg := range batch {
					d := msg.Digest()
					h.Write(d[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("batch digest %s, want %s", got, tc.want)
			}
		})
	}
}
