package core

import (
	"context"
	"fmt"
	"time"

	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// Rows is the streaming cursor over one executing query — the primary way
// results leave the engine. Iteration follows the database/sql idiom:
//
//	rows, err := eng.Select(ctx, query)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    row := rows.Row() // aligned to rows.Vars(), valid until next Next
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows are delivered as the pipeline produces them: memory stays bounded
// by operator state (hash-table build sides up to the spill budget, one
// VALUES block and its scan's queue per bound join), not by the result
// size. Close is required
// on every path — it cancels in-flight endpoint work, releases spill
// files, and finalizes the profile; abandoning a cursor without Close
// leaks goroutines until the surrounding context ends. A cursor is not
// safe for concurrent use. Its pipeline's rows are ids in the engine's term
// dictionary, the one that was current when the cursor started; the cursor
// keeps it until Close even if the engine retires it meanwhile.
type Rows struct {
	eng   *Engine
	src   op.RowStream
	dict  *rdf.Dict
	row   []rdf.Term
	vars  []string
	prof  *Profile
	ctx   context.Context
	start time.Time

	execStart time.Time
	exSpan    *obs.Span

	n      int64
	err    error
	closed bool
}

// startQuery sets up the per-query profile, trace, and warning sink. The
// caller owns their teardown: a planning failure finishes them inline, a
// cursor in Close.
func (e *Engine) startQuery(ctx context.Context) (context.Context, *Profile, time.Time) {
	prof := &Profile{}
	if e.opts.Trace {
		prof.Trace = obs.NewSpan("query")
		ctx = obs.ContextWithSpan(ctx, prof.Trace)
	}
	ctx = resilience.WithWarnings(ctx)
	return ctx, prof, time.Now()
}

// newRows builds the full result pipeline for a plan and wraps it in a
// cursor: the branch pipelines concatenated (UNION), then op.Finish. Only
// blocking modifiers (ORDER BY, GROUP BY, aggregates) hold rows at the
// tail, and everything upstream of them still runs pipelined. An ASK
// yields at most one row: branches start lazily, so the branches after
// the one that answers are never sent.
func (e *Engine) newRows(ctx context.Context, p *Plan, prof *Profile, start time.Time) *Rows {
	execStart := time.Now()
	exCtx, exSpan := obs.StartSpan(ctx, "execution")
	dict := e.dict.Load()
	branches := make([]op.RowStream, len(p.branches))
	for i, pb := range p.branches {
		branches[i] = e.branchStream(exCtx, pb, dict, prof)
	}
	src := op.Finish(p.query, dict, op.Union(branches...))
	return &Rows{
		eng:       e,
		src:       src,
		dict:      dict,
		vars:      append([]string(nil), src.Vars()...),
		prof:      prof,
		ctx:       ctx,
		start:     start,
		execStart: execStart,
		exSpan:    exSpan,
	}
}

// finishProfile collects warnings and closes out the timings.
func finishProfile(ctx context.Context, prof *Profile, start time.Time) {
	prof.Warnings = append(prof.Warnings, resilience.TakeWarnings(ctx)...)
	if len(prof.Warnings) > 0 {
		prof.Trace.SetAttr("degraded", len(prof.Warnings))
	}
	prof.Total = time.Since(start)
}

// Vars returns the cursor's column header.
func (r *Rows) Vars() []string { return r.vars }

// Next advances to the next solution row, returning false at the end of
// the result or on error; Err distinguishes the two.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	// A cancelled query must fail, not end cleanly on whatever rows the
	// pipeline had already buffered.
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return false
	}
	if r.src.Next() {
		r.n++
		return true
	}
	r.err = r.src.Err()
	return false
}

// Row returns the current row, aligned to Vars (unbound variables are
// zero Terms). It is only valid until the next Next or Close; copy it to
// retain it.
func (r *Rows) Row() []rdf.Term {
	r.row = r.dict.Terms(r.src.Row(), r.row)
	return r.row
}

// Scan copies the current row into dest, one pointer per variable.
func (r *Rows) Scan(dest ...*rdf.Term) error {
	row := r.Row()
	if len(dest) != len(row) {
		return fmt.Errorf("lusail: Scan expects %d destinations, got %d", len(row), len(dest))
	}
	for i, d := range dest {
		*d = row[i]
	}
	return nil
}

// Binding returns the current row as a variable→term map, omitting
// unbound variables. The map is freshly allocated and safe to retain.
func (r *Rows) Binding() map[string]rdf.Term {
	row := r.Row()
	out := make(map[string]rdf.Term, len(r.vars))
	for i, v := range r.vars {
		if !row[i].IsZero() {
			out[v] = row[i]
		}
	}
	return out
}

// Err returns the error that terminated iteration, if any. Like
// database/sql, it is meaningful after Next returns false.
func (r *Rows) Err() error { return r.err }

// Close releases the pipeline — cancelling in-flight endpoint work,
// reaping goroutines, deleting spill files — and finalizes the profile.
// It is idempotent and must be called on every path, including early
// abandonment mid-iteration.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.src.Close()
	r.prof.Execution += time.Since(r.execStart)
	r.prof.Terms = r.dict.Len()
	r.exSpan.SetAttr("rows", int(r.n))
	r.exSpan.SetAttr("terms", r.prof.Terms)
	r.exSpan.End()
	r.eng.retireDict(r.dict)
	finishProfile(r.ctx, r.prof, r.start)
	if r.prof.Trace != nil {
		r.prof.Trace.SetAttr("results", int(r.n))
		r.prof.Trace.End()
	}
	return err
}

// Profile returns the query's execution profile. It is complete only
// after Close; before that it returns nil.
func (r *Rows) Profile() *Profile {
	if !r.closed {
		return nil
	}
	return r.prof
}

// Select plans and executes a SELECT query, returning a streaming cursor
// over its solutions. The caller must Close the cursor on every path.
// This is the primary execution entry point; Query is the materializing
// convenience built on top of it.
func (e *Engine) Select(ctx context.Context, query string) (*Rows, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	if q.Form != sparql.SelectForm {
		return nil, fmt.Errorf("lusail: Select requires a SELECT query")
	}
	ctx, prof, start := e.startQuery(ctx)
	p, err := e.plan(ctx, q, prof)
	if err != nil {
		finishProfile(ctx, prof, start)
		if prof.Trace != nil {
			prof.Trace.End()
		}
		return nil, err
	}
	return e.newRows(ctx, p, prof, start), nil
}

// ExecutePlanStream executes a plan built by Plan and returns a streaming
// cursor — the one way a plan runs, for every query form. An ASK plan's
// cursor yields one row when the answer is true and none when it is
// false. The plan is not mutated; concurrent executions of one plan are
// safe. The profile's planning counters reflect the plan (GJVs,
// decomposition); its planning timings are zero because nothing was
// planned in this call.
func (e *Engine) ExecutePlanStream(ctx context.Context, p *Plan) (*Rows, error) {
	ctx, prof, start := e.startQuery(ctx)
	p.summarize(prof)
	return e.newRows(ctx, p, prof, start), nil
}

// idRows is a cursor seen as the id stream it wraps, for op.Answer: Next,
// Err and Close stay the cursor's own.
type idRows struct{ *Rows }

func (r idRows) Row() []uint32 { return r.src.Row() }
