package dataset

import (
	"errors"
	"sync"
)

// pipeline is one file scan in flight (DESIGN.md §15), the one skeleton
// both codecs run. A reader goroutine cuts the stream into units in
// order — curtainbin segments, JSONL chunks of whole lines — and loads
// each into an idle decoder; each unit's records are decoded on a
// goroutine of its own; the scanning goroutine takes them in stream
// order. A decoder is the token that admits a unit: the reader waits for
// an idle one before loading into it, so the work in flight is bounded by
// the number of decoders, never by a header field or a line's length.
type pipeline[D unitDecoder] struct {
	idle chan D // a semaphore
	jobs chan *unitJob
	stop chan struct{}
	wg   sync.WaitGroup
}

// unitDecoder is a pipeline's decoder token: it holds the unit the reader
// last loaded into it and decodes that unit's records.
type unitDecoder interface {
	records(fn ScanFunc) error
}

// batchRecords is how many decoded records travel to the scanning
// goroutine in one hand-off: enough to amortise the hand-off, few enough
// that a unit waiting its turn holds little beyond its buffers.
const batchRecords = 8

// recordBatch travels by value, so a hand-off allocates nothing and the
// decoder can refill its own copy as soon as the scanner has taken it.
type recordBatch struct {
	n    int
	recs [batchRecords]*Experiment
}

// unitJob is one unit in flight: its decoder sends the unit's records on
// out, a batch at a time, and closes out after the last with err set to
// how decoding ended.
type unitJob struct {
	out chan recordBatch
	err error
}

// errStopped ends the decode of a unit whose scan has stopped.
var errStopped = errors.New("dataset: scan stopped")

// runPipeline streams the records of the units read loads into decs,
// decoding up to len(decs) units at once. read runs on a goroutine of its
// own until the stream ends or the scan stops (next and start report
// that); its error is how the stream ended, returned after the records of
// every unit it started. fn runs on the calling goroutine, in stream
// order, and its error comes back unwrapped; so does a unit's decode
// error, after the records decoded before it. runPipeline returns only
// after every goroutine it started has exited, with every decoder idle.
func runPipeline[D unitDecoder](decs []D, read func(p *pipeline[D]) error, fn ScanFunc) error {
	p := &pipeline[D]{
		idle: make(chan D, len(decs)),
		// One job per decoder: a queued job keeps its decoder busy until
		// the scanner takes its records, so only jobs that yield none can
		// fill the queue.
		jobs: make(chan *unitJob, len(decs)),
		stop: make(chan struct{}),
	}
	for _, dec := range decs {
		p.idle <- dec
	}
	var rerr error
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(p.jobs)
		rerr = read(p)
	}()
	err := p.yield(fn)
	close(p.stop)
	p.wg.Wait()
	if err != nil {
		return err
	}
	return rerr
}

// yield hands fn the records of every job in order. It stops at fn's
// error or at the first unit that fails to decode, and returns that
// error.
func (p *pipeline[D]) yield(fn ScanFunc) error {
	for job := range p.jobs {
		for b := range job.out {
			for _, e := range b.recs[:b.n] {
				if err := fn(e); err != nil {
					return err
				}
			}
		}
		if job.err != nil {
			return job.err
		}
	}
	return nil
}

// stopped reports whether the scanner has stopped taking records.
func (p *pipeline[D]) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// next waits for an idle decoder to load the next unit into; ok is false
// once the scanner has stopped.
func (p *pipeline[D]) next() (dec D, ok bool) {
	select {
	case dec = <-p.idle:
	case <-p.stop:
		return dec, false
	}
	if p.stopped() {
		p.idle <- dec
		return dec, false
	}
	return dec, true
}

// release puts back a decoder the reader took and loaded nothing into.
func (p *pipeline[D]) release(dec D) { p.idle <- dec }

// start decodes the unit loaded into dec on a goroutine of its own and
// queues its records for the scanner; false once the scanner has stopped.
func (p *pipeline[D]) start(dec D) bool {
	job := &unitJob{out: make(chan recordBatch)}
	p.wg.Add(1)
	go p.decode(dec, job)
	select {
	case p.jobs <- job:
		return true
	case <-p.stop:
		return false
	}
}

// decode sends job the records of the unit loaded into dec, then puts dec
// back among the idle.
func (p *pipeline[D]) decode(dec D, job *unitJob) {
	defer p.wg.Done()
	var b recordBatch
	send := func() bool {
		select {
		case job.out <- b:
			b.n = 0
			return true
		case <-p.stop:
			return false
		}
	}
	err := dec.records(func(e *Experiment) error {
		b.recs[b.n] = e
		b.n++
		if b.n == batchRecords && !send() {
			return errStopped
		}
		return nil
	})
	if err != errStopped && b.n > 0 {
		send()
	}
	job.err = err
	close(job.out)
	p.idle <- dec
}
