package client_test

// A peer that completes the handshake and then never answers must cost
// each control RPC no more than the caller's context: the context binds
// every exchange, not only the dial.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// silentPeer accepts connections, completes the responder handshake,
// then reads and discards whatever arrives without ever replying. It
// hangs up after hangUp, so a client that ignores its context still
// returns, just late.
func silentPeer(t *testing.T, hangUp time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	id := identity(t, 90)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = nc.SetDeadline(time.Now().Add(hangUp))
				conn := wire.NewConn(nc)
				defer conn.Close()
				if _, _, err := wire.ResponderHandshake(conn, id, nil); err != nil {
					return
				}
				for {
					_, b, err := conn.Next()
					if err != nil {
						return
					}
					b.Release()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestControlRPCsHonorContextAgainstSilentPeer(t *testing.T) {
	const budget = 300 * time.Millisecond
	addr := silentPeer(t, 5*time.Second)
	c, err := client.New(identity(t, 91), nil)
	if err != nil {
		t.Fatal(err)
	}
	challenge := wire.AuditChallenge{
		FileID:     1,
		Nonce:      bytes.Repeat([]byte{1}, wire.AuditNonceLen),
		Key:        bytes.Repeat([]byte{2}, wire.AuditKeyLen),
		MessageIDs: []uint64{1},
	}
	rpcs := []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"ListFiles", func(ctx context.Context) error {
			_, err := c.ListFiles(ctx, addr)
			return err
		}},
		{"ProposeContract", func(ctx context.Context) error {
			_, _, err := c.ProposeContract(ctx, addr, wire.ContractPropose{ContractID: 1, FileID: 1, Messages: 1, Bytes: 1, TTLSeconds: 60})
			return err
		}},
		{"Disseminate", func(ctx context.Context) error {
			return c.Disseminate(ctx, addr, []*rlnc.Message{{FileID: 1, MessageID: 1, Payload: []byte{1}}})
		}},
		{"SendFeedback", func(ctx context.Context) error {
			return c.SendFeedback(ctx, addr, map[string]uint64{"peer": 1})
		}},
		{"Audit", func(ctx context.Context) error {
			_, _, err := c.Audit(ctx, addr, challenge)
			return err
		}},
	}
	for _, rpc := range rpcs {
		t.Run(rpc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			start := time.Now()
			err := rpc.call(ctx)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s against a silent peer = %v after %v, want context.DeadlineExceeded", rpc.name, err, elapsed)
			}
			if elapsed > budget+time.Second {
				t.Fatalf("%s returned after %v, %v past its %v context", rpc.name, elapsed, elapsed-budget, budget)
			}
		})
	}
}
