package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"

	"lusail/internal/rdf"
	"lusail/internal/store"
)

// Options tunes a store at open time.
type Options struct {
	// CacheBytes bounds the memory spent on decoded dictionary and triple
	// blocks. Defaults to 64 MiB; values below 1 MiB are raised to 1 MiB
	// so a store always has room for a working set of blocks.
	CacheBytes int64
}

const (
	defaultCacheBytes = 64 << 20
	minCacheBytes     = 1 << 20
	// resolveCacheMax bounds the term -> id memo; when full it is reset
	// (hot terms re-warm within a few lookups).
	resolveCacheMax = 8192
)

// Store is a read-only, disk-backed triple store implementing store.Graph.
// It is safe for concurrent readers.
type Store struct {
	f    *os.File
	path string
	ft   footer

	dict  dictReader
	dirs  [permCount][]blockMeta
	cache *blockCache

	predCount map[uint32]int64
	predIDs   []uint32 // ascending

	resolveMu sync.Mutex
	resolve   map[rdf.Term]resolveEntry

	corruptMu sync.Mutex
	corrupt   error
}

var _ store.Graph = (*Store)(nil)

type resolveEntry struct {
	id uint32
	ok bool
}

// Open maps a store file built by the bulk loader. The file is validated
// structurally (footer checksum, section bounds); a truncated or
// corrupted file fails here rather than at query time.
func Open(path string, opts Options) (*Store, error) {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = defaultCacheBytes
	}
	if opts.CacheBytes < minCacheBytes {
		opts.CacheBytes = minCacheBytes
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s, err := open(f, path, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func open(f *os.File, path string, opts Options) (*Store, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	size := info.Size()
	if size < int64(len(headerMagic)+footerSize) {
		return nil, fmt.Errorf("diskstore: %s: file too small to be a store (%d bytes)", path, size)
	}
	hdr := make([]byte, len(headerMagic))
	if err := readFullAt(f, hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr) != headerMagic {
		return nil, fmt.Errorf("diskstore: %s: bad header magic (not a lusail disk store)", path)
	}
	s := &Store{f: f, path: path, cache: newBlockCache(opts.CacheBytes),
		resolve: make(map[rdf.Term]resolveEntry)}
	fbuf := make([]byte, footerSize)
	if err := readFullAt(f, fbuf, size-int64(footerSize)); err != nil {
		return nil, err
	}
	if err := s.ft.unmarshal(fbuf); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	if err := s.ft.validate(size); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}

	// Resident metadata: dictionary block offsets, the three block
	// directories, and the predicate statistics.
	idx := make([]byte, s.ft.dictBlocks*8)
	if err := readFullAt(f, idx, int64(s.ft.dictIdxOff)); err != nil {
		return nil, err
	}
	offsets := make([]uint64, s.ft.dictBlocks)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(idx[i*8:])
	}
	s.dict = dictReader{
		r: f, offsets: offsets,
		dictEnd:   s.ft.dictOff + s.ft.dictLen,
		blockSize: int(s.ft.dictBlockSize),
		termCount: s.ft.termCount,
		hashOff:   s.ft.hashOff, hashCount: s.ft.hashCount,
		cache: s.cache,
	}
	for p := 0; p < permCount; p++ {
		reg := s.ft.perms[p]
		raw := make([]byte, reg.dirCount*dirEntrySize)
		if err := readFullAt(f, raw, int64(reg.dirOff)); err != nil {
			return nil, err
		}
		dir := make([]blockMeta, reg.dirCount)
		for i := range dir {
			dir[i] = unmarshalDirEntry(raw[i*dirEntrySize:])
		}
		s.dirs[p] = dir
	}
	blocks := (s.ft.tripleCount + s.ft.tripleBlockSize - 1) / s.ft.tripleBlockSize
	for p, reg := range s.ft.perms {
		if reg.dirCount != blocks {
			return nil, fmt.Errorf("diskstore: %s: permutation %d has %d blocks for %d triples of %d per block", path, p, reg.dirCount, s.ft.tripleCount, s.ft.tripleBlockSize)
		}
	}
	raw := make([]byte, s.ft.statsCount*statEntrySize)
	if err := readFullAt(f, raw, int64(s.ft.statsOff)); err != nil {
		return nil, err
	}
	s.predCount = make(map[uint32]int64, s.ft.statsCount)
	s.predIDs = make([]uint32, s.ft.statsCount)
	for i := uint64(0); i < s.ft.statsCount; i++ {
		pid := binary.LittleEndian.Uint32(raw[i*statEntrySize:])
		n := binary.LittleEndian.Uint64(raw[i*statEntrySize+4:])
		s.predCount[pid] = int64(n)
		s.predIDs[i] = pid
	}
	return s, nil
}

// Close releases the underlying file. Queries must not be in flight.
func (s *Store) Close() error { return s.f.Close() }

// Path returns the store file's path.
func (s *Store) Path() string { return s.path }

// Len returns the number of triples in the store.
func (s *Store) Len() int { return int(s.ft.tripleCount) }

// TermCount returns the number of distinct terms in the dictionary.
func (s *Store) TermCount() int { return int(s.ft.termCount) }

// CacheStats reports block-cache hits, misses, and resident bytes.
func (s *Store) CacheStats() (hits, misses, usedBytes int64) { return s.cache.stats() }

// Err returns the first corruption detected while decoding blocks, if any.
// Structural damage is caught at Open; Err covers mid-file bit corruption
// discovered during scans (after which the affected scans stop early).
func (s *Store) Err() error {
	s.corruptMu.Lock()
	defer s.corruptMu.Unlock()
	return s.corrupt
}

func (s *Store) setCorrupt(err error) {
	s.corruptMu.Lock()
	if s.corrupt == nil {
		s.corrupt = err
	}
	s.corruptMu.Unlock()
}

// resolveTerm returns the dictionary id of t, memoized.
func (s *Store) resolveTerm(t rdf.Term) (uint32, bool) {
	s.resolveMu.Lock()
	if e, ok := s.resolve[t]; ok {
		s.resolveMu.Unlock()
		return e.id, e.ok
	}
	s.resolveMu.Unlock()
	id, ok, err := s.dict.lookup(encodeTerm(nil, t))
	if err != nil {
		s.setCorrupt(err)
		return 0, false
	}
	s.resolveMu.Lock()
	if len(s.resolve) >= resolveCacheMax {
		s.resolve = make(map[rdf.Term]resolveEntry, resolveCacheMax)
	}
	s.resolve[t] = resolveEntry{id: id, ok: ok}
	s.resolveMu.Unlock()
	return id, ok
}

// PredicateCount implements store.Graph.
func (s *Store) PredicateCount(p rdf.Term) int {
	id, ok := s.resolveTerm(p)
	if !ok {
		return 0
	}
	return int(s.predCount[id])
}

// Predicates implements store.Graph.
func (s *Store) Predicates() []rdf.Term {
	out := make([]rdf.Term, 0, len(s.predIDs))
	for _, id := range s.predIDs {
		t, err := s.dict.term(id)
		if err != nil {
			s.setCorrupt(err)
			return out
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Lookup implements store.Graph.
func (s *Store) Lookup(t rdf.Term) (uint32, bool) { return s.resolveTerm(t) }

// Term implements store.Graph.
func (s *Store) Term(id uint32) (rdf.Term, bool) {
	if uint64(id) >= s.ft.termCount {
		return rdf.Term{}, false
	}
	t, err := s.dict.term(id)
	if err != nil {
		s.setCorrupt(err)
		return rdf.Term{}, false
	}
	return t, true
}

// Match implements store.Graph: resolve the bound terms, match on ids,
// decode what matched.
func (s *Store) Match(sub, pred, obj *rdf.Term, fn func(rdf.Triple) bool) {
	ids, ok := s.resolvePattern(sub, pred, obj)
	if !ok {
		return
	}
	s.MatchIDs(ids[0], ids[1], ids[2], func(sid, pid, oid uint32) bool {
		st, sok := s.Term(sid)
		pt, pok := s.Term(pid)
		ot, ook := s.Term(oid)
		if !sok || !pok || !ook {
			return false // corrupt dictionary block, recorded by Term
		}
		return fn(rdf.Triple{S: st, P: pt, O: ot})
	})
}

// Count returns the number of triples matching the pattern.
func (s *Store) Count(sub, pred, obj *rdf.Term) int {
	ids, ok := s.resolvePattern(sub, pred, obj)
	if !ok {
		return 0
	}
	return s.CountIDs(ids[0], ids[1], ids[2])
}

// Contains reports whether at least one triple matches the pattern.
func (s *Store) Contains(sub, pred, obj *rdf.Term) bool {
	return s.Count(sub, pred, obj) > 0
}

// resolvePattern maps a term pattern to an id pattern; ok is false when a
// bound term is not in the dictionary, so that nothing matches.
func (s *Store) resolvePattern(sub, pred, obj *rdf.Term) (ids [3]uint32, ok bool) {
	for i, t := range [3]*rdf.Term{sub, pred, obj} {
		ids[i] = store.Wildcard
		if t != nil {
			if ids[i], ok = s.resolveTerm(*t); !ok {
				return ids, false
			}
		}
	}
	return ids, true
}

// MatchIDs implements store.Graph with the in-memory store's index
// selection (store.KeyRange): one range of one permutation, entered where
// seek finds its first triple.
func (s *Store) MatchIDs(sub, pred, obj uint32, fn func(sub, pred, obj uint32) bool) {
	perm, lo, hi := store.KeyRange(sub, pred, obj)
	i, blk, j, ok := s.seek(perm, lo, false)
	dir := s.dirs[perm]
	for ; ok && i < len(dir); i, blk, j = i+1, nil, 0 {
		if blk == nil {
			if tripleLess(hi, dir[i].first) {
				return
			}
			if blk, ok = s.tripleBlock(perm, i); !ok {
				return
			}
		}
		for _, t := range blk[j:] {
			if tripleLess(hi, t) {
				return
			}
			if !fn(store.FromKey(perm, t)) {
				return
			}
		}
	}
}

// CountIDs implements store.Graph: the distance between the positions of
// the range's two ends, so at most two blocks are read and none is walked.
// Every block but the last holds exactly tripleBlockSize triples, which
// Open and tripleBlock check, so a position follows from a block's index
// and an offset inside it.
func (s *Store) CountIDs(sub, pred, obj uint32) int {
	perm, lo, hi := store.KeyRange(sub, pred, obj)
	from, _, fromJ, ok := s.seek(perm, lo, false)
	if !ok {
		return 0
	}
	to, _, toJ, ok := s.seek(perm, hi, true)
	if !ok {
		return 0
	}
	size := int(s.ft.tripleBlockSize)
	return to*size + toJ - (from*size + fromJ)
}

// seek finds the first triple of the permutation that is not ordered
// before key (with inclusive, not before or equal to it): a directory
// search for the block, then a search inside the decoded block. It
// returns the block's index, the block, and the triple's offset there
// (which may be the block's length: the position is then the next
// block's start). When the position is the permutation's very start it
// decodes nothing and returns block 0 as nil.
func (s *Store) seek(perm int, key tripleID, inclusive bool) (i int, blk []tripleID, j int, ok bool) {
	before := func(t tripleID) bool {
		if inclusive {
			return !tripleLess(key, t)
		}
		return tripleLess(t, key)
	}
	dir := s.dirs[perm]
	i = sort.Search(len(dir), func(i int) bool { return !before(dir[i].first) })
	if i == 0 {
		return 0, nil, 0, true
	}
	if blk, ok = s.tripleBlock(perm, i-1); !ok {
		return 0, nil, 0, false
	}
	return i - 1, blk, sort.Search(len(blk), func(j int) bool { return !before(blk[j]) }), true
}

func tripleLess(a, b tripleID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// tripleBlock loads and decodes one block through the cache.
func (s *Store) tripleBlock(perm, i int) ([]tripleID, bool) {
	key := cacheKey{kind: cacheSPO + cacheKind(perm), idx: uint64(i)}
	if v, ok := s.cache.get(key); ok {
		return v.([]tripleID), true
	}
	m := s.dirs[perm][i]
	raw := make([]byte, m.length)
	if err := readFullAt(s.f, raw, int64(m.offset)); err != nil {
		s.setCorrupt(err)
		return nil, false
	}
	blk, err := decodeTripleBlock(raw)
	if err == nil && len(blk) != s.blockLen(i) {
		err = fmt.Errorf("diskstore: block holds %d triples, want %d", len(blk), s.blockLen(i))
	}
	if err != nil {
		s.setCorrupt(fmt.Errorf("%w (permutation %d block %d)", err, perm, i))
		return nil, false
	}
	s.cache.put(key, blk, int64(len(blk))*12)
	return blk, true
}

// blockLen is the number of triples block i of any permutation holds: the
// loader fills every block but the last.
func (s *Store) blockLen(i int) int {
	size := s.ft.tripleBlockSize
	return int(min(size, s.ft.tripleCount-uint64(i)*size))
}

// Triples returns all triples in SPO order (intended for tests and small
// stores; it materializes the whole dataset).
func (s *Store) Triples() []rdf.Triple {
	var out []rdf.Triple
	s.Match(nil, nil, nil, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// dictReader resolves ids to terms and terms to ids against the on-disk
// dictionary. It is shared by the open store and the bulk loader (which
// resolves triples against the dictionary it just wrote).
type dictReader struct {
	r interface {
		ReadAt([]byte, int64) (int, error)
	}
	offsets   []uint64 // absolute file offset per block
	dictEnd   uint64
	blockSize int
	termCount uint64
	hashOff   uint64
	hashCount uint64
	cache     *blockCache
}

// dictBlock holds one decoded dictionary block in both representations:
// canonical encodings (for lookups) and decoded terms (for emission).
type dictBlock struct {
	encs  [][]byte
	terms []rdf.Term
}

func (d *dictReader) block(i int) (*dictBlock, error) {
	key := cacheKey{kind: cacheDict, idx: uint64(i)}
	if v, ok := d.cache.get(key); ok {
		return v.(*dictBlock), nil
	}
	end := d.dictEnd
	if i+1 < len(d.offsets) {
		end = d.offsets[i+1]
	}
	raw := make([]byte, end-d.offsets[i])
	if err := readFullAt(d.r, raw, int64(d.offsets[i])); err != nil {
		return nil, err
	}
	encs, err := decodeDictBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (dictionary block %d)", err, i)
	}
	blk := &dictBlock{encs: encs, terms: make([]rdf.Term, len(encs))}
	size := int64(0)
	for j, enc := range encs {
		t, err := decodeTerm(enc)
		if err != nil {
			return nil, fmt.Errorf("%w (dictionary block %d)", err, i)
		}
		blk.terms[j] = t
		size += int64(2*len(enc)) + 64
	}
	d.cache.put(key, blk, size)
	return blk, nil
}

// term returns the term with the given dictionary id.
func (d *dictReader) term(id uint32) (rdf.Term, error) {
	if uint64(id) >= d.termCount {
		return rdf.Term{}, fmt.Errorf("diskstore: term id %d out of range (%d terms)", id, d.termCount)
	}
	blk, err := d.block(int(id) / d.blockSize)
	if err != nil {
		return rdf.Term{}, err
	}
	j := int(id) % d.blockSize
	if j >= len(blk.terms) {
		return rdf.Term{}, fmt.Errorf("diskstore: term id %d beyond its dictionary block", id)
	}
	return blk.terms[j], nil
}

// lookup finds the id of a canonically encoded term via the sorted hash
// index: binary search to the first entry with the term's hash, then
// verify each same-hash candidate against the dictionary.
func (d *dictReader) lookup(enc []byte) (uint32, bool, error) {
	h := hashTerm(enc)
	lo, hi := uint64(0), d.hashCount
	var buf [hashEntrySize]byte
	probe := func(i uint64) (uint64, uint32, error) {
		if err := readFullAt(d.r, buf[:], int64(d.hashOff+i*hashEntrySize)); err != nil {
			return 0, 0, err
		}
		return binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint32(buf[8:]), nil
	}
	for lo < hi {
		mid := (lo + hi) / 2
		eh, _, err := probe(mid)
		if err != nil {
			return 0, false, err
		}
		if eh < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < d.hashCount; i++ {
		eh, id, err := probe(i)
		if err != nil {
			return 0, false, err
		}
		if eh != h {
			break
		}
		blk, err := d.block(int(id) / d.blockSize)
		if err != nil {
			return 0, false, err
		}
		j := int(id) % d.blockSize
		if j < len(blk.encs) && bytes.Equal(blk.encs[j], enc) {
			return id, true, nil
		}
	}
	return 0, false, nil
}
