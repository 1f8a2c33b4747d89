// The convert subcommand transcodes a dataset between the JSONL
// debug/interchange form and the compact curtainbin form (DESIGN.md
// §15). The input codec is auto-detected from the file magic, records
// stream one at a time, and a jsonl -> binary -> jsonl round trip is
// byte-identical. The input may also be a campaign checkpoint directory:
// `convert -in ck/ -out x.jsonl` is how a checkpoint is read by eye.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cellcurtain/internal/dataset"
)

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "dataset.jsonl", "input dataset file (codec auto-detected by magic) or checkpoint directory")
	out := fs.String("out", "", "output path (required)")
	formatName := fs.String("format", "", "output codec: jsonl or binary (default: the opposite of the input)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("convert requires -out")
	}
	inf, err := inputFormat(*in)
	if err != nil {
		return err
	}
	f := dataset.FormatBinary
	if *formatName != "" {
		if f, err = dataset.ParseFormat(*formatName); err != nil {
			return err
		}
	} else if inf == dataset.FormatBinary {
		f = dataset.FormatJSONL
	}

	// Stream record by record: memory stays flat no matter how large the
	// dataset, and the atomic write means a crash cannot leave a torn
	// half-converted file at -out.
	n := 0
	if err := dataset.WriteFileAtomic(*out, func(w io.Writer) error {
		sink, flush := dataset.NewWriter(w, f)
		if err := scanInput(*in, func(e *dataset.Experiment) error {
			n++
			return sink(e)
		}); err != nil {
			return err
		}
		return flush()
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "curtain: converted %d experiments: %s (%s) -> %s (%s)\n",
		n, *in, inf, *out, f)
	return nil
}
