package wire

// Mutual challenge-response handshake (Fig. 4(b), transmissions 1-2,
// run in both directions):
//
//	initiator -> responder: HELLO     {role, pubI, nonceI}
//	responder -> initiator: CHALLENGE {pubR, sig_R(nonceI), nonceR}
//	initiator -> responder: AUTH      {pubI, sig_I(nonceR)}
//	responder -> initiator: AUTH_OK
//
// Each side verifies the other's signature and checks the key against
// its trust set before any content flows.

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"

	"asymshare/internal/auth"
)

// InitiatorHandshake authenticates to a responder over c and verifies
// it in turn, as two Calls bound to ctx. trusted, if non-nil, restricts
// which responder keys are acceptable. It returns the responder's
// public key.
func InitiatorHandshake(ctx context.Context, c *Conn, id *auth.Identity, role Role, trusted *auth.TrustSet) (ed25519.PublicKey, error) {
	nonce, err := auth.NewChallenge()
	if err != nil {
		return nil, err
	}
	hello := Hello{Role: role, PubKey: id.Public(), Nonce: nonce}
	b, err := c.Call(ctx, TypeHello, hello.Marshal(), TypeChallenge)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	var ch Challenge
	err = ch.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		return nil, err
	}
	responderKey := ed25519.PublicKey(ch.PubKey)
	if trusted != nil {
		if err := trusted.Check(responderKey, nonce, ch.Signature); err != nil {
			return nil, fmt.Errorf("wire: responder authentication: %w", err)
		}
	} else if err := auth.Verify(responderKey, nonce, ch.Signature); err != nil {
		return nil, fmt.Errorf("wire: responder authentication: %w", err)
	}

	sig, err := id.Respond(ch.Nonce)
	if err != nil {
		return nil, err
	}
	resp := AuthResponse{PubKey: id.Public(), Signature: sig}
	b, err = c.Call(ctx, TypeAuthResponse, resp.Marshal(), TypeAuthOK)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake not accepted: %w", err)
	}
	b.Release()
	return responderKey, nil
}

// ResponderHandshake runs the responder side over c, answering a
// failed step with an ERROR frame. trusted, if non-nil, restricts which
// initiator keys are served. It returns the verified initiator key and
// its announced role.
func ResponderHandshake(c *Conn, id *auth.Identity, trusted *auth.TrustSet) (ed25519.PublicKey, Role, error) {
	b, err := c.Expect(TypeHello)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: handshake: %w", err)
	}
	var hello Hello
	err = hello.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		c.Reject(CodeBadRequest, "malformed hello")
		return nil, 0, err
	}

	sig, err := id.Respond(hello.Nonce)
	if err != nil {
		c.Reject(CodeBadRequest, "malformed nonce")
		return nil, 0, err
	}
	nonce, err := auth.NewChallenge()
	if err != nil {
		return nil, 0, err
	}
	ch := Challenge{PubKey: id.Public(), Signature: sig, Nonce: nonce}
	if err := c.Send(TypeChallenge, ch.Marshal()); err != nil {
		return nil, 0, err
	}

	b, err = c.Expect(TypeAuthResponse)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: handshake: %w", err)
	}
	var resp AuthResponse
	err = resp.Unmarshal(b.Bytes())
	b.Release()
	if err != nil {
		c.Reject(CodeBadRequest, "malformed auth response")
		return nil, 0, err
	}
	if !bytes.Equal(resp.PubKey, hello.PubKey) {
		c.Reject(CodeAuthFailed, "key mismatch between hello and auth")
		return nil, 0, fmt.Errorf("%w: hello/auth key mismatch", ErrBadFrame)
	}
	initiatorKey := ed25519.PublicKey(resp.PubKey)
	if trusted != nil {
		if err := trusted.Check(initiatorKey, nonce, resp.Signature); err != nil {
			c.Reject(CodeAuthFailed, "authentication failed")
			return nil, 0, fmt.Errorf("wire: initiator authentication: %w", err)
		}
	} else if err := auth.Verify(initiatorKey, nonce, resp.Signature); err != nil {
		c.Reject(CodeAuthFailed, "authentication failed")
		return nil, 0, fmt.Errorf("wire: initiator authentication: %w", err)
	}
	if err := c.Send(TypeAuthOK, nil); err != nil {
		return nil, 0, err
	}
	return initiatorKey, hello.Role, nil
}
