package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestRunSeqMatchesCampaign proves RunSeq is a pure function of
// experiment identity: a fresh campaign executing seqs in a scrambled
// order — exactly what a control-plane worker does with leased ranges —
// reproduces the serial campaign's experiments bit for bit.
func TestRunSeqMatchesCampaign(t *testing.T) {
	cfg := ckConfig(t, 1, "", "")
	cfg.CheckpointDir = ""
	serial := ckCampaign(t, cfg).Collect()

	worker := ckCampaign(t, cfg)
	total := worker.Total()
	if total != serial.Len() {
		t.Fatalf("Total() = %d, serial campaign ran %d", total, serial.Len())
	}
	if _, err := worker.RunSeq(0); err == nil {
		t.Fatal("RunSeq(0) accepted, want range error")
	}
	if _, err := worker.RunSeq(total + 1); err == nil {
		t.Fatalf("RunSeq(%d) accepted, want range error", total+1)
	}
	// Back to front, so every experiment runs out of canonical order.
	for seq := total; seq >= 1; seq-- {
		e, err := worker.RunSeq(seq)
		if err != nil {
			t.Fatalf("RunSeq(%d): %v", seq, err)
		}
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(serial.Experiments[seq-1])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("RunSeq(%d) diverges from serial:\n got %s\nwant %s", seq, got, want)
		}
	}
}

// TestResumeMismatchNamesBothHashes requires the resume rejection to be
// a typed ConfigMismatchError whose message names the manifest's
// recorded config hash and the freshly computed one, so the operator can
// tell which side is wrong.
func TestResumeMismatchNamesBothHashes(t *testing.T) {
	dir := t.TempDir()
	orig := ckConfig(t, 1, "", dir)
	if _, _, err := collect(ckCampaign(t, orig)); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	wrong := orig
	wrong.Faults = "resolver-outage"
	wrong.Resume = true
	_, _, err := collect(ckCampaign(t, wrong))
	if err == nil {
		t.Fatal("resume with a different fault scenario succeeded")
	}
	var mismatch *ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("resume error %T is not a *ConfigMismatchError: %v", err, err)
	}
	if mismatch.Manifest.ConfigHash != orig.Hash() || mismatch.Hash != wrong.Hash() {
		t.Fatalf("mismatch carries hashes (%s, %s), want (%s, %s)",
			mismatch.Manifest.ConfigHash, mismatch.Hash, orig.Hash(), wrong.Hash())
	}
	for _, hash := range []string{orig.Hash(), wrong.Hash()} {
		if !strings.Contains(err.Error(), hash) {
			t.Fatalf("error %q does not name hash %s", err, hash)
		}
	}
}
