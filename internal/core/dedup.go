package core

import (
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Dedup compresses a database by exact tuple duplication: every class of
// identical tuples becomes one group whose pattern is the whole tuple and
// whose tails are all empty. This is the degenerate case of the paper's
// compression that needs no previously mined patterns at all, yet dense
// relational data (fixed-length attribute encodings with few distinct
// configurations) often collapses dramatically — and every compressed-
// database engine in this module can mine the result as-is.
func Dedup(db *dataset.DB) *CDB {
	cdb := &CDB{NumTx: db.Len(), Dict: db.Dict()}
	index := map[string]int{} // tuple key -> group index
	for id, t := range db.All() {
		k := mining.Key(t)
		gi, ok := index[k]
		if !ok {
			gi = len(cdb.Groups)
			index[k] = gi
			cdb.Groups = append(cdb.Groups, Group{Pattern: t})
		}
		g := &cdb.Groups[gi]
		g.Tails = append(g.Tails, nil)
		g.TupleIDs = append(g.TupleIDs, id)
	}
	// Singleton groups carry no sharing; keep them as loose tuples so the
	// group machinery only pays for itself.
	out := cdb.Groups[:0]
	for _, g := range cdb.Groups {
		if g.Count() == 1 {
			cdb.Loose = append(cdb.Loose, g.Pattern)
			cdb.LooseIDs = append(cdb.LooseIDs, g.TupleIDs[0])
			continue
		}
		out = append(out, g)
	}
	cdb.Groups = out
	return cdb
}
