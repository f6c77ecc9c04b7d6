package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// digest is an order-insensitive multiset fingerprint of a result: each
// row is hashed over its sorted "var=term" pairs and the hashes are folded
// with addition, so two results agree exactly when they hold the same rows
// the same number of times, whatever the row or column order (the scheme
// of resultDigest in internal/bench/pipeline.go).
type digest struct {
	rows uint64
	sum  uint64
}

func rowHash(vars []string, row []rdf.Term) uint64 {
	parts := make([]string, 0, len(vars))
	for i, v := range vars {
		if i < len(row) && !row[i].IsZero() {
			parts = append(parts, v+"="+row[i].String())
		}
	}
	sort.Strings(parts)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(parts, "\x1f")))
	return h.Sum64()
}

func (d *digest) add(h uint64) {
	d.rows++
	d.sum += h
}

// oracleAnswer is what every timed execution of a query must reproduce.
// For a query with LIMIT (and no ORDER BY) any limit-sized subset of the
// unlimited answer is right, so the oracle keeps that answer's row hashes.
type oracleAnswer struct {
	exact digest
	// limit >= 0 switches to the subset rule; superset counts the rows of
	// the unlimited answer by hash.
	limit    int
	superset map[uint64]int
}

// checker folds the rows of one execution and compares them to the oracle.
type checker struct {
	want *oracleAnswer
	got  digest
	seen map[uint64]int
	bad  bool
}

func (a *oracleAnswer) newChecker() *checker {
	c := &checker{want: a}
	if a.limit >= 0 {
		c.seen = map[uint64]int{}
	}
	return c
}

func (c *checker) add(vars []string, row []rdf.Term) {
	h := rowHash(vars, row)
	c.got.add(h)
	if c.seen != nil {
		c.seen[h]++
		if c.seen[h] > c.want.superset[h] {
			c.bad = true
		}
	}
}

func (c *checker) err() error {
	if c.seen == nil {
		if c.got != c.want.exact {
			return fmt.Errorf("wrong answer: got %d rows (digest %x), oracle has %d rows (digest %x)",
				c.got.rows, c.got.sum, c.want.exact.rows, c.want.exact.sum)
		}
		return nil
	}
	wantRows := uint64(c.want.limit)
	if c.want.exact.rows < wantRows {
		wantRows = c.want.exact.rows
	}
	if c.bad || c.got.rows != wantRows {
		return fmt.Errorf("wrong answer: got %d rows (outside the oracle's answer: %v), want %d of the oracle's %d",
			c.got.rows, c.bad, wantRows, c.want.exact.rows)
	}
	return nil
}

// answerQueries evaluates every query of the mix over the union of the
// federation's triples with the reference evaluator.
func answerQueries(union store.Graph, queries []query) error {
	ev := eval.New(union)
	for i := range queries {
		q := &queries[i]
		parsed, err := sparql.Parse(q.oracleText)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", q.name, err)
		}
		ans := oracleAnswer{limit: -1}
		if parsed.Limit >= 0 && len(parsed.OrderBy) == 0 {
			ans.limit = parsed.Limit
			ans.superset = map[uint64]int{}
			parsed.Limit = -1
		}
		res, err := ev.Query(parsed)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", q.name, err)
		}
		for _, row := range res.Rows {
			h := rowHash(res.Vars, row)
			ans.exact.add(h)
			if ans.superset != nil {
				ans.superset[h]++
			}
		}
		q.want = ans
	}
	return nil
}
