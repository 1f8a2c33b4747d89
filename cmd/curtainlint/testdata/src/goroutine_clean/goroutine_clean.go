// Package fixture shows joinable goroutine shapes and lock discipline:
// WaitGroup joins, channel signals, closes, drained workers, explicit
// tickers, and locks released before network I/O.
package fixture

import (
	"net"
	"sync"
	"time"
)

// Join waits for its workers through a WaitGroup.
func Join(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// Signal reports completion on a buffered channel.
func Signal() <-chan error {
	errc := make(chan error, 1)
	go func() {
		errc <- nil
	}()
	return errc
}

// Closer signals by closing a done channel.
func Closer() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	return done
}

// worker drains its channel; the spawner joins by closing it.
func worker(ch <-chan int) {
	for range ch {
	}
}

// StartWorker spawns a named function whose body shows the join.
func StartWorker(ch chan int) {
	go worker(ch)
}

// Timer uses an explicit ticker with a deferred Stop.
func Timer(stop chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}

type pinger struct {
	mu   sync.Mutex
	conn *net.UDPConn
	n    int
}

// Ping releases the lock before touching the network.
func (p *pinger) Ping(buf []byte) error {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, err := p.conn.Write(buf)
	return err
}

// pool is generic: its go statement calls a method through the type's
// instantiation, whose body is still this package's to check.
type pool[T any] struct {
	wg  sync.WaitGroup
	out chan T
}

func (p *pool[T]) Start(v T) {
	p.wg.Add(1)
	go p.send(v)
}

func (p *pool[T]) send(v T) {
	defer p.wg.Done()
	p.out <- v
}
