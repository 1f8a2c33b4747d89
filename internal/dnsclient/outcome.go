package dnsclient

import (
	"errors"
	"syscall"

	"cellcurtain/internal/dnswire"
)

// Outcome classifies how a lookup ended, the vocabulary the dataset
// records for every resolution step.
type Outcome string

// Lookup outcomes.
const (
	// OutcomeOK is a NOERROR answer.
	OutcomeOK Outcome = "ok"
	// OutcomeNXDomain is an authoritative name error — data, not failure.
	OutcomeNXDomain Outcome = "nxdomain"
	// OutcomeServFail is a SERVFAIL answer from the (last) server tried.
	OutcomeServFail Outcome = "servfail"
	// OutcomeRefused is a REFUSED answer or a refused connection.
	OutcomeRefused Outcome = "refused"
	// OutcomeTimeout means every attempt timed out.
	OutcomeTimeout Outcome = "timeout"
	// OutcomeError is any other failure (malformed responses, transport
	// faults).
	OutcomeError Outcome = "error"
)

// Classify maps a (Result, error) pair from Query/QueryFailover to its
// Outcome. Transport errors are inspected through the net.Error-style
// Timeout()/Refused() marker interfaces so the same code classifies both
// real-socket and simulated failures without importing either transport;
// a socket's refusal carries no such marker and is recognised by its errno.
func Classify(res *Result, err error) Outcome {
	if err != nil {
		var to interface{ Timeout() bool }
		if errors.As(err, &to) && to.Timeout() {
			return OutcomeTimeout
		}
		var rf interface{ Refused() bool }
		if errors.As(err, &rf) && rf.Refused() || errors.Is(err, syscall.ECONNREFUSED) {
			return OutcomeRefused
		}
		return OutcomeError
	}
	if res == nil || res.Msg == nil {
		return OutcomeError
	}
	switch res.Msg.Header.RCode {
	case dnswire.RCodeSuccess:
		return OutcomeOK
	case dnswire.RCodeNXDomain:
		return OutcomeNXDomain
	case dnswire.RCodeServFail:
		return OutcomeServFail
	case dnswire.RCodeRefused:
		return OutcomeRefused
	default:
		return OutcomeError
	}
}
