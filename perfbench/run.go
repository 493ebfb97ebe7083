package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	gmetrics "gogreen/internal/metrics"
	"gogreen/internal/mining"
	"gogreen/internal/server"
)

// bench is one invocation: a workload, its oracle, and a working directory
// for data directories and span files.
type bench struct {
	w     *workload
	or    *oracle
	work  string
	epoch time.Time
	tally *tally
	dirs  int
}

// setupRuns is how many times an untraced run sets up a server; setup_s is
// their median.
const setupRuns = 5

func (b *bench) clock() int64 { return int64(time.Since(b.epoch)) }

// freshDir returns a new data directory holding a copy of the pre-written
// base directory.
func (b *bench) freshDir(kind string) (string, error) {
	b.dirs++
	dir := filepath.Join(b.work, kind+"-"+strconv.Itoa(b.dirs))
	return dir, copyDir(filepath.Join(b.work, "base"), dir)
}

// setup opens a server (on a fresh copy of the pre-written data directory
// when durable) and runs the warm-up pass. A traced set-up mirrors every
// request, recovery included, into rec. It returns the pass and the set-up
// time: server open through the end of warm-up.
func (b *bench) setup(rec *recorder) (*pass, time.Duration, error) {
	w := b.w
	p := &pass{w: w, or: b.or, clock: b.clock, ts: newTenantState(w), tally: b.tally}
	if w.durable {
		dir, err := b.freshDir("srv")
		if err != nil {
			return nil, 0, err
		}
		p.dir = dir
		for t := int32(0); t < int32(w.tenants); t++ {
			p.ts.recordWrite(t, w.initialContent(t))
			p.ts.ack(t)
		}
	}
	if rec != nil {
		p.mir = newMirror(w.budget)
		if w.durable {
			dir, err := b.freshDir("mirror")
			if err != nil {
				return nil, 0, err
			}
			if err := p.mir.recoverFrom(rec, filepath.Join(dir, "shard-0")); err != nil {
				return nil, 0, err
			}
		}
	}
	p.reg = gmetrics.NewRegistry()
	t0 := time.Now()
	srv, err := openServer(w, p.dir, p.reg)
	if err != nil {
		return nil, 0, err
	}
	p.srv, p.h = srv, srv.Handler()
	g := p.newG(rec, 0)
	for _, o := range w.warm {
		g.exec(o)
	}
	return p, time.Since(t0), nil
}

// prewrite builds the data directory durable set-ups recover from: every
// tenant uploaded, mined once at the lowest threshold (a persisted rung),
// and one tenant in four with a saved set.
func (b *bench) prewrite() error {
	w := b.w
	reg := gmetrics.NewRegistry()
	srv, err := openServer(w, filepath.Join(b.work, "base"), reg)
	if err != nil {
		return err
	}
	p := &pass{w: w, or: b.or, clock: b.clock, ts: newTenantState(w),
		tally: b.tally, srv: srv, reg: reg, h: srv.Handler()}
	g := p.newG(nil, 0)
	lowest := int8(len(w.xis) - 1)
	for t := int32(0); t < int32(w.tenants); t++ {
		g.exec(op{kind: opPut, tenant: t, content: w.initialContent(t)})
		g.exec(op{kind: opMine, tenant: t, xi: lowest, save: t%4 == 0})
	}
	return srv.Close()
}

// verifySets compares full pattern sets with the oracle once per (content,
// threshold) pair: each content is uploaded under its own id, mined at every
// threshold from the highest down (fresh, then recycled) and back up
// (filtered from a rung), saving each result and reading it back.
func (b *bench) verifySets(h http.Handler) {
	w, c := b.w, newClient(h)
	for ci := range w.contents {
		id := "v" + strconv.Itoa(ci)
		code, _, _, err := c.do("PUT", "/db/"+id, "verify", w.contents[ci].body, b.clock)
		if err != nil || code != http.StatusCreated {
			b.tally.fail("verify put %s: status %d err %v", id, code, err)
			continue
		}
		n := len(w.xis)
		for k := 0; k < 2*n; k++ {
			xi := k
			if k >= n {
				xi = 2*n - 1 - k
			}
			name := "v" + strconv.Itoa(k)
			b.checkSet(c, id, ci, w.xis[xi], name)
		}
	}
}

// checkSet mines id at xi saving the result as name, then fetches the saved
// set and compares it with the oracle's.
func (b *bench) checkSet(c *client, id string, ci int, xi float64, name string) {
	code, _, _, err := c.do("POST", "/db/"+id+"/mine", "verify", mineBody(xi, name), b.clock)
	var resp mineResp
	if err != nil || code != http.StatusOK || json.Unmarshal(c.rw.body.Bytes(), &resp) != nil || resp.SavedAs != name {
		b.tally.fail("verify mine %s ξ=%g: status %d err %v: %s", id, xi, code, err, c.rw.body.String())
		return
	}
	min := mining.MinCount(b.w.contents[ci].db.Len(), xi)
	if resp.Count != b.or.count(ci, min) {
		b.tally.fail("verify mine %s ξ=%g: count %d, oracle %d", id, xi, resp.Count, b.or.count(ci, min))
		return
	}
	b.tally.ok()
	b.checkFetched(c, id, name, ci, min)
}

// checkFetched reads saved set name back and compares it with content ci's
// oracle set at min.
func (b *bench) checkFetched(c *client, id, name string, ci, min int) {
	code, _, _, err := c.do("GET", "/db/"+id+"/patterns/"+name, "", nil, b.clock)
	var got []wirePattern
	switch {
	case err != nil || code != http.StatusOK || json.Unmarshal(c.rw.body.Bytes(), &got) != nil:
		b.tally.fail("fetch %s/%s: status %d err %v", id, name, code, err)
	case !b.or.sameSet(ci, min, got):
		b.tally.fail("fetch %s/%s: pattern set differs from the oracle at min_count %d", id, name, min)
	default:
		b.tally.ok()
	}
}

// checkDurable closes the pass's server, opens a new one on the same data
// directory and checks that the acknowledged state survived: every live
// tenant's database with its tuple and item counts, every listed saved set
// with the oracle's count (the full set once per content and threshold),
// every save acknowledged after the tenant's last write, and a 404 for every
// tenant whose last acknowledged write was a DELETE.
func (b *bench) checkDurable(p *pass) error {
	if err := p.srv.Close(); err != nil {
		return err
	}
	srv, err := openServer(b.w, p.dir, gmetrics.NewRegistry())
	if err != nil {
		return err
	}
	defer srv.Close()
	c := newClient(srv.Handler())
	fetched := map[[2]int]bool{}
	for t := 0; t < b.w.tenants; t++ {
		id := b.w.tenantID(int32(t))
		code, _, _, err := c.do("GET", "/db/"+id, "", nil, b.clock)
		c16, _ := p.ts.current(int32(t))
		cur := int(c16)
		if cur < 0 {
			if err != nil || code != http.StatusNotFound {
				b.tally.fail("durable: deleted %s answers status %d err %v", id, code, err)
			} else {
				b.tally.ok()
			}
			continue
		}
		var info server.DBInfo
		db := b.w.contents[cur].db
		if err != nil || code != http.StatusOK || json.Unmarshal(c.rw.body.Bytes(), &info) != nil ||
			info.Tuples != db.Len() || info.NumItems != db.NumItems() {
			b.tally.fail("durable: %s status %d info %+v, want %d tuples %d items", id, code, info, db.Len(), db.NumItems())
			continue
		}
		b.tally.ok()
		code, _, _, err = c.do("GET", "/db/"+id+"/patterns", "", nil, b.clock)
		var sets []server.SetInfo
		if err != nil || code != http.StatusOK || json.Unmarshal(c.rw.body.Bytes(), &sets) != nil {
			b.tally.fail("durable: list sets of %s: status %d err %v", id, code, err)
			continue
		}
		listed := map[string]server.SetInfo{}
		for _, s := range sets {
			listed[s.Name] = s
			if s.Count != b.or.count(cur, s.MinCount) {
				b.tally.fail("durable: %s/%s holds %d patterns, oracle %d", id, s.Name, s.Count, b.or.count(cur, s.MinCount))
				continue
			}
			b.tally.ok()
			if k := [2]int{cur, s.MinCount}; !fetched[k] {
				fetched[k] = true
				b.checkFetched(c, id, s.Name, cur, s.MinCount)
			}
		}
		for k, s := range p.ts.saves {
			if int(k.tenant) != t || s.start < p.ts.lastAck[t] {
				continue // a later write legitimately dropped it
			}
			want := b.or.countXi(b.w, cur, b.w.xis[s.xi])
			if got, ok := listed[k.name]; !ok || got.Count != want {
				b.tally.fail("durable: acknowledged save %s/%s missing or wrong (%+v, want %d)", id, k.name, got, want)
			} else {
				b.tally.ok()
			}
		}
	}
	b.verifySets(srv.Handler())
	return nil
}

// copyDir copies the regular files of the tree at src into dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
