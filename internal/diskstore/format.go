// Package diskstore implements a read-optimized, disk-backed, compressed
// RDF triple store: the substrate that lets `lusail endpoint` serve the
// paper's data magnitudes (10⁶–10⁹ triples) in bounded memory, where the
// in-memory store caps out at what fits in RAM.
//
// # File format
//
// One self-contained file, written strictly sequentially by the bulk
// loader (see builder.go) and immutable afterwards:
//
//	header   8 B   magic "LUSDSK01"
//	dict     front-coded blocks of dictBlockSize canonical term encodings,
//	         sorted; term id = position in the sorted order
//	dictIdx  one uint64 file offset per dictionary block (loaded into
//	         memory at Open: 8 B per dictBlockSize terms)
//	hash     (uint64 FNV-64a hash, uint32 id) entries sorted by hash, for
//	         term -> id lookup by on-disk binary search
//	3 × perm varint-delta-compressed blocks of up to tripleBlockSize
//	         sorted id-triples in SPO, POS, and OSP permutation order,
//	         each followed by a directory (first triple + offset + length
//	         per block, loaded into memory at Open: 24 B per block)
//	stats    (uint32 predicate id, uint64 triple count) entries, the
//	         per-predicate statistic both backends must agree on
//	footer   fixed-size section table + counts, its own magic and CRC32
//
// Memory at read time is bounded: the dictionary block offsets, the three
// block directories, and the predicate stats are resident (a few MB at 10⁸
// triples); everything else is fetched on demand through a byte-budgeted
// LRU cache of decoded blocks. A crash while loading leaves no store file
// behind (the loader builds into a temp file and renames on success), and
// a truncated or corrupted file fails Open via the footer checks.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lusail/internal/store"
)

const (
	headerMagic = "LUSDSK01"
	footerMagic = "LUSDFTR1"

	// defaultDictBlockSize is how many terms share one front-coded block.
	defaultDictBlockSize = 16
	// defaultTripleBlockSize is how many id-triples one compressed block
	// holds (decoded: 12 B each, so a block is ~48 KB in cache).
	defaultTripleBlockSize = 4096

	hashEntrySize = 12 // uint64 hash + uint32 id
	dirEntrySize  = 24 // 3 × uint32 first triple + uint64 offset + uint32 length
	statEntrySize = 12 // uint32 predicate id + uint64 count
)

// permutation indexes into footer.perms and Store.dirs: the key layouts of
// store.KeyRange, which picks the permutation a pattern scans.
const (
	permSPO   = store.PermSPO
	permPOS   = store.PermPOS
	permOSP   = store.PermOSP
	permCount = 3
)

// permRegion locates one permutation's blocks and directory.
type permRegion struct {
	blocksOff, blocksLen uint64
	dirOff, dirCount     uint64
}

// footer is the section table at the end of the file.
type footer struct {
	dictOff, dictLen       uint64
	dictIdxOff             uint64
	dictBlocks             uint64
	hashOff, hashCount     uint64
	perms                  [permCount]permRegion
	statsOff, statsCount   uint64
	termCount, tripleCount uint64
	version                uint64
	dictBlockSize          uint64
	tripleBlockSize        uint64
}

// footerSize is the on-disk size of the footer: the fields above as
// little-endian uint64s, then footerMagic, then a CRC32 of those bytes.
const footerFields = 6 + 4*permCount + 2 + 2 + 3
const footerSize = footerFields*8 + len(footerMagic) + 4

func (f *footer) fields() []*uint64 {
	out := []*uint64{
		&f.dictOff, &f.dictLen, &f.dictIdxOff, &f.dictBlocks,
		&f.hashOff, &f.hashCount,
	}
	for i := range f.perms {
		p := &f.perms[i]
		out = append(out, &p.blocksOff, &p.blocksLen, &p.dirOff, &p.dirCount)
	}
	out = append(out, &f.statsOff, &f.statsCount,
		&f.termCount, &f.tripleCount,
		&f.version, &f.dictBlockSize, &f.tripleBlockSize)
	return out
}

// marshal renders the footer including magic and checksum.
func (f *footer) marshal() []byte {
	buf := make([]byte, 0, footerSize)
	for _, p := range f.fields() {
		buf = binary.LittleEndian.AppendUint64(buf, *p)
	}
	buf = append(buf, footerMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// unmarshal parses and validates a footer read from the last footerSize
// bytes of the file.
func (f *footer) unmarshal(buf []byte) error {
	if len(buf) != footerSize {
		return fmt.Errorf("diskstore: short footer (%d bytes)", len(buf))
	}
	body := buf[:footerSize-4]
	sum := binary.LittleEndian.Uint32(buf[footerSize-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("diskstore: footer checksum mismatch (truncated or corrupted file)")
	}
	if string(body[len(body)-len(footerMagic):]) != footerMagic {
		return fmt.Errorf("diskstore: bad footer magic")
	}
	for i, p := range f.fields() {
		*p = binary.LittleEndian.Uint64(body[i*8:])
	}
	if f.dictBlockSize == 0 || f.tripleBlockSize == 0 {
		return fmt.Errorf("diskstore: zero block size in footer")
	}
	return nil
}

// validate checks that every section lies inside the file.
func (f *footer) validate(fileSize int64) error {
	check := func(name string, off, length uint64) error {
		if off > uint64(fileSize) || off+length > uint64(fileSize) {
			return fmt.Errorf("diskstore: %s section [%d,+%d) outside file of %d bytes (truncated file?)", name, off, length, fileSize)
		}
		return nil
	}
	if err := check("dictionary", f.dictOff, f.dictLen); err != nil {
		return err
	}
	if err := check("dictionary index", f.dictIdxOff, f.dictBlocks*8); err != nil {
		return err
	}
	if err := check("hash index", f.hashOff, f.hashCount*hashEntrySize); err != nil {
		return err
	}
	for i, p := range f.perms {
		if err := check(fmt.Sprintf("permutation %d blocks", i), p.blocksOff, p.blocksLen); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("permutation %d directory", i), p.dirOff, p.dirCount*dirEntrySize); err != nil {
			return err
		}
	}
	return check("stats", f.statsOff, f.statsCount*statEntrySize)
}

// blockMeta is one in-memory directory entry for a triple block.
type blockMeta struct {
	first  tripleID
	offset uint64
	length uint32
}

// marshalDirEntry appends one directory entry.
func marshalDirEntry(dst []byte, m blockMeta) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.first[0])
	dst = binary.LittleEndian.AppendUint32(dst, m.first[1])
	dst = binary.LittleEndian.AppendUint32(dst, m.first[2])
	dst = binary.LittleEndian.AppendUint64(dst, m.offset)
	dst = binary.LittleEndian.AppendUint32(dst, m.length)
	return dst
}

func unmarshalDirEntry(b []byte) blockMeta {
	return blockMeta{
		first: tripleID{
			binary.LittleEndian.Uint32(b),
			binary.LittleEndian.Uint32(b[4:]),
			binary.LittleEndian.Uint32(b[8:]),
		},
		offset: binary.LittleEndian.Uint64(b[12:]),
		length: binary.LittleEndian.Uint32(b[20:]),
	}
}

// readFullAt reads exactly len(buf) bytes at off.
func readFullAt(r io.ReaderAt, buf []byte, off int64) error {
	n, err := r.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("diskstore: reading %d bytes at offset %d: %w", len(buf), off, err)
}
