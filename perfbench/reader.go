package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// apiServer serves the observatory API on a loopback port.
type apiServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func startAPI(h http.Handler) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &apiServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { a.done <- a.srv.Serve(ln) }()
	return a, nil
}

// close stops the server and waits for it to exit.
func (a *apiServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	if serr := <-a.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// apiWatcher is told when a campaign's live API is up and when the
// campaign has returned. The parent process's open-loop reader polls
// the API in between, so that the child's memory figures count only
// the engine and the server side.
type apiWatcher interface {
	// started is called with the API's base URL before the campaign
	// starts, and returns once the reader is polling.
	started(url string) error
	// finished is called after the campaign returns, and returns once
	// the reader has stopped. It returns the reader's figures when the
	// reader ran in this process.
	finished() (*readerStats, error)
}

// Lines of the child/parent handshake on the child's standard error.
const (
	apiUpPrefix  = "perfbench-api-up "
	campaignDone = "perfbench-campaign-done"
)

// parentReader is a child's side of the handshake: it announces the
// API on standard error and waits on standard input, first for one
// line once the parent's reader runs, then for end of file once the
// reader has stopped.
type parentReader struct{ in *bufio.Reader }

func (p parentReader) started(url string) error {
	fmt.Fprintln(os.Stderr, apiUpPrefix+url)
	if _, err := p.in.ReadString('\n'); err != nil {
		return fmt.Errorf("waiting for the parent's reader: %w", err)
	}
	return nil
}

func (p parentReader) finished() (*readerStats, error) {
	fmt.Fprintln(os.Stderr, campaignDone)
	_, err := io.Copy(io.Discard, p.in)
	return nil, err
}

// localReader runs the open-loop reader in this process. The tests use
// it, since they run campaigns without a parent.
type localReader struct{ r *openLoopReader }

func (l *localReader) started(url string) error {
	l.r = startReader(url, readerRate)
	return nil
}

func (l *localReader) finished() (*readerStats, error) {
	s := l.r.stop()
	return &s, nil
}

// readerStats is what an API reader measured.
type readerStats struct {
	Sent   int `json:"sent"`
	Errors int `json:"errors"`
	// LatMs is each request's latency measured from the time it was
	// due, so a stalled request also charges the wait it imposed on
	// the requests queued behind it.
	LatMs []float64 `json:"lat_ms"`
	// LateMs is how late each request was sent after its due time.
	LateMs []float64 `json:"late_ms"`
}

// poller alternates between the alert log, read forward from a
// cursor, and the next page of the link table, over one connection.
type poller struct {
	base   string
	client *http.Client
	tr     *http.Transport
	cursor uint64
	page   int
}

func newPoller(base string) *poller {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &poller{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, page: 1}
}

// request sends request i and records it, timed from due, in s.
func (p *poller) request(i int, due time.Time, s *readerStats) {
	sent := time.Now()
	var err error
	if i%2 == 0 {
		p.cursor, err = readAlerts(p.client, p.base, p.cursor)
	} else {
		p.page, err = readLinks(p.client, p.base, p.page)
	}
	s.Sent++
	s.LateMs = append(s.LateMs, ms(sent.Sub(due)))
	s.LatMs = append(s.LatMs, ms(time.Since(due)))
	if err != nil {
		s.Errors++
		fmt.Fprintf(os.Stderr, "perfbench: reader request %d: %v\n", i, err)
	}
}

// readClosedLoop sends n requests back to back and returns their
// figures; a request is due when the previous one returns, so none is
// late.
func readClosedLoop(base string, n int) readerStats {
	p := newPoller(base)
	defer p.tr.CloseIdleConnections()
	var s readerStats
	for i := 0; i < n; i++ {
		p.request(i, time.Now(), &s)
	}
	return s
}

// openLoopReader polls the API on a fixed schedule, independent of how
// fast the replies come back.
type openLoopReader struct {
	quit  chan struct{}
	done  chan struct{}
	stats readerStats
}

func startReader(base string, rate float64) *openLoopReader {
	r := &openLoopReader{quit: make(chan struct{}), done: make(chan struct{})}
	go r.loop(base, time.Duration(float64(time.Second)/rate))
	return r
}

// stop ends the schedule and waits for the in-flight request.
func (r *openLoopReader) stop() readerStats {
	close(r.quit)
	<-r.done
	return r.stats
}

func (r *openLoopReader) loop(base string, interval time.Duration) {
	defer close(r.done)
	p := newPoller(base)
	defer p.tr.CloseIdleConnections()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C

	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-r.quit:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-r.quit:
				return
			default:
			}
		}
		p.request(i, due, &r.stats)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() {
		// Drain the body so the connection is reused.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// readAlerts fetches the alerts after cursor and returns the new
// cursor. Sequence numbers must continue the cursor without gaps.
func readAlerts(client *http.Client, base string, cursor uint64) (uint64, error) {
	var body struct {
		Next   uint64 `json:"next"`
		Alerts []struct {
			Seq uint64 `json:"seq"`
		} `json:"alerts"`
	}
	if err := getJSON(client, fmt.Sprintf("%s/alerts?since=%d", base, cursor), &body); err != nil {
		return cursor, err
	}
	for _, a := range body.Alerts {
		if a.Seq != cursor+1 {
			return cursor, fmt.Errorf("alert seq %d after cursor %d", a.Seq, cursor)
		}
		cursor = a.Seq
	}
	if body.Next != cursor {
		return cursor, fmt.Errorf("alerts next=%d, want %d", body.Next, cursor)
	}
	return cursor, nil
}

// readLinks fetches one page of the link table and returns the page to
// read next, wrapping around at the end.
func readLinks(client *http.Client, base string, page int) (int, error) {
	var body struct {
		Page  int               `json:"page"`
		Pages int               `json:"pages"`
		Per   int               `json:"per"`
		Links []json.RawMessage `json:"links"`
	}
	if err := getJSON(client, fmt.Sprintf("%s/links?page=%d", base, page), &body); err != nil {
		return page, err
	}
	if body.Page != page || len(body.Links) > body.Per {
		return page, fmt.Errorf("links page %d: got page %d with %d rows", page, body.Page, len(body.Links))
	}
	if page >= body.Pages {
		return 1, nil
	}
	return page + 1, nil
}
