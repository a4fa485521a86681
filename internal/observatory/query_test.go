package observatory

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"testing"
	"time"

	"afrixp/internal/analysis"
	"afrixp/internal/netaddr"
	"afrixp/internal/prober"
	"afrixp/internal/simclock"
)

// queryService is a service watching a few links over a day's empty
// collectors, fed to the day's end, with more alerts appended than its
// four-slot ring holds — enough state for every query path to index
// into, cheap enough to build per fuzz input.
func queryService(tb testing.TB) (*Service, []string) {
	tb.Helper()
	s := New(Config{AlertCap: 4, LinkAlertCap: 2})
	day := simclock.Interval{Start: simclock.Date(2016, time.July, 20), End: simclock.Date(2016, time.July, 21)}
	var ids []string
	for i := 0; i < 3; i++ {
		target := prober.LinkTarget{
			Near: netaddr.MustParseAddr(fmt.Sprintf("196.49.%d.1", i)),
			Far:  netaddr.MustParseAddr(fmt.Sprintf("196.49.%d.2", i)),
		}
		s.Watch("VP1", target, analysis.NewCollector(nil, analysis.CollectorConfig{Campaign: day}), "", false)
		ids = append(ids, LinkID("VP1", target))
	}
	s.ObserveBarrier(day.End)
	s.mu.Lock()
	for i := 0; i < 7; i++ {
		s.alertN++
		s.appendAlert(Alert{Seq: s.alertN, Link: ids[i%len(ids)], AtNs: int64(day.Start) + int64(i)*int64(time.Hour),
			From: "clear", To: "suspected"})
	}
	s.mu.Unlock()
	return s, ids
}

// requireWriteLock fails unless a writer can take the service lock —
// what the next ObserveBarrier or Finalize needs.
func requireWriteLock(tb testing.TB, s *Service, after string) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !s.mu.TryLock() {
		if time.Now().After(deadline) {
			tb.Fatalf("after %s a writer cannot take the service lock", after)
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
}

// A page number whose offset overflows int used to panic inside the
// read lock; net/http recovered the panic but the lock stayed held, and
// the campaign's next barrier blocked forever. The page is now empty
// and the lock free.
func TestLinksHugePageKeepsLockFree(t *testing.T) {
	s, _ := queryService(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, q := range []string{"page=4611686018427387905&per=3", "page=9223372036854775807&per=1000", "page=3&per=1"} {
		resp, err := http.Get(srv.URL + "/links?" + q)
		if err == nil {
			resp.Body.Close()
		}
		requireWriteLock(t, s, "/links?"+q)
		if err != nil {
			t.Fatalf("GET /links?%s: %v", q, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /links?%s: status %d", q, resp.StatusCode)
		}
	}
	code, body := getQuery(t, s, "/links?page=4611686018427387905&per=3")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("status %d, body %q", code, body)
	}
	if got, _ := linksPageRows(s, 4611686018427387905, 3); got != 0 {
		t.Fatalf("page past the end returned %d rows", got)
	}
	if got, _ := linksPageRows(s, 2, 2); got != 1 {
		t.Fatalf("last partial page returned %d rows, want 1", got)
	}
}

// A since cursor at or past the newest alert — including −1, which
// parses to the largest uint64 — returns no alerts.
func TestAlertsSinceAtOrPastNewest(t *testing.T) {
	s, _ := queryService(t)
	for _, since := range []uint64{7, 8, 1 << 63, ^uint64(0)} {
		if out, _ := s.AlertsSince(since, 0, nil); len(out) != 0 {
			t.Fatalf("since %d returned %d alerts: %+v", since, len(out), out)
		}
	}
	if out, oldest := s.AlertsSince(0, 0, nil); len(out) != 4 || oldest != 4 || out[0].Seq != 4 || out[3].Seq != 7 {
		t.Fatalf("since 0: %d alerts from %d, oldest %d", len(out), out[0].Seq, oldest)
	}
}

func linksPageRows(s *Service, page, per int) (int, int) {
	total, rows, _ := s.linksPage(page, per)
	return len(rows), total
}

func getQuery(tb testing.TB, s *Service, target string) (int, string) {
	tb.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.String()
}

// FuzzQueryParams feeds arbitrary page, per, since and limit values and
// link ids to /links, /links/{id} and /alerts. Every request must answer
// without panicking, with a status the API defines (or the mux's
// redirect of an id that is not a clean path), and leave the service
// lock free for the next writer.
func FuzzQueryParams(f *testing.F) {
	f.Add("1", "100", "0", "1000", "VP1~196.49.0.1~196.49.0.2")
	f.Add("4611686018427387905", "3", "-1", "-5", "")
	f.Add("-9223372036854775808", "1000", "18446744073709551615", "0", "VP1~196.49.2.1~196.49.2.2")
	f.Add("2", "1", "5", "1", "../links")
	f.Add("x", "1e3", "", "9223372036854775807", "%zz\x00")
	s, _ := queryService(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, page, per, since, limit, id string) {
		links := url.Values{"page": {page}, "per": {per}}
		alerts := url.Values{"since": {since}, "limit": {limit}}
		for _, target := range []string{
			"/links?" + links.Encode(),
			"/links/" + url.PathEscape(id),
			"/alerts?" + alerts.Encode(),
		} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, target, nil)
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
			case http.StatusMovedPermanently:
				// The mux redirects an id like "." or "a/../b" to its
				// cleaned path before any handler runs.
				if path.Clean(req.URL.Path) == req.URL.Path {
					t.Fatalf("GET %s: redirected a clean path", target)
				}
			default:
				t.Fatalf("GET %s: status %d", target, rec.Code)
			}
			requireWriteLock(t, s, target)
		}
	})
}
