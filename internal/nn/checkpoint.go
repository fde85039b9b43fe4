package nn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"murmuration/internal/tensor"
)

// Checkpoint format: magic, count, then per parameter a length-prefixed name
// followed by the tensor in the standard wire encoding, then an integrity
// trailer: "MURC" + u32 CRC32C (Castagnoli, little endian) over every byte
// before the trailer. Loading matches parameters by name and shape, so
// checkpoints survive reordering but not architectural changes. Legacy
// trailer-less checkpoints (written before the trailer existed) still load —
// the stream simply ends after the last parameter.

var (
	ckptMagic   = []byte("MURM1")
	ckptTrailer = []byte("MURC")

	ckptTable = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCheckpointCorrupt is the typed failure for a checkpoint whose CRC32C
// trailer does not match its contents: the file was truncated or bit-rotted
// after it was written. Wrapped errors unwrap to it via errors.Is.
var ErrCheckpointCorrupt = errors.New("nn: checkpoint failed integrity check")

// crcWriter folds every byte written through it into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, ckptTable, p[:n])
	return n, err
}

// crcReader folds every byte read through it into a running CRC32C.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, ckptTable, p[:n])
	return n, err
}

// WriteParams serializes parameters to w, ending with the CRC32C trailer.
func WriteParams(w io.Writer, params []*Param) error {
	cw := &crcWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(ckptMagic); err != nil {
		return err
	}
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(params)))
	if _, err := bw.Write(n4[:]); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if len(name) > 65535 {
			return fmt.Errorf("nn: parameter name too long: %s", p.Name)
		}
		var l2 [2]byte
		binary.LittleEndian.PutUint16(l2[:], uint16(len(name)))
		if _, err := bw.Write(l2[:]); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		if err := tensor.Encode(bw, p.W); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer goes straight to w: it carries the CRC, it isn't covered by it.
	var t8 [8]byte
	copy(t8[:4], ckptTrailer)
	binary.LittleEndian.PutUint32(t8[4:], cw.crc)
	_, err := w.Write(t8[:])
	return err
}

// ReadParams reads a checkpoint (ReadCheckpoint) into params (CopyParams):
// params not present in the checkpoint are left untouched, and nothing is
// copied unless the whole checkpoint reads back intact.
func ReadParams(r io.Reader, params []*Param) error {
	stored, err := ReadCheckpoint(r)
	if err != nil {
		return err
	}
	return CopyParams(params, stored)
}

// CopyParams copies each stored parameter into the one of params with its
// name. Every stored parameter must exist there with an identical shape.
func CopyParams(params, stored []*Param) error {
	byName := make(map[string]*Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	for _, s := range stored {
		p, ok := byName[s.Name]
		if !ok {
			return fmt.Errorf("nn: checkpoint parameter %q not found in model", s.Name)
		}
		if !p.W.SameShape(s.W) {
			return fmt.Errorf("nn: parameter %q shape %v != checkpoint %v", s.Name, p.W.Shape, s.W.Shape)
		}
		copy(p.W.Data, s.W.Data)
	}
	return nil
}

// ReadCheckpoint deserializes every parameter a checkpoint stores, in file
// order, so a caller can size its model from the stored shapes. When the
// integrity trailer is present it is verified (mismatch yields
// ErrCheckpointCorrupt); trailer-less legacy checkpoints are accepted as-is.
func ReadCheckpoint(r io.Reader) ([]*Param, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, err
	}
	if string(magic) != string(ckptMagic) {
		return nil, fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	var n4 [4]byte
	if _, err := io.ReadFull(cr, n4[:]); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(n4[:]))
	var stored []*Param
	for i := 0; i < count; i++ {
		var l2 [2]byte
		if _, err := io.ReadFull(cr, l2[:]); err != nil {
			return nil, err
		}
		name := make([]byte, binary.LittleEndian.Uint16(l2[:]))
		if _, err := io.ReadFull(cr, name); err != nil {
			return nil, err
		}
		t, err := tensor.Decode(cr)
		if err != nil {
			return nil, err
		}
		stored = append(stored, NewParam(string(name), t))
	}
	// Snapshot the CRC before touching the trailer bytes: the trailer must
	// not fold into the sum it is being checked against.
	sum := cr.crc
	var t8 [8]byte
	if _, err := io.ReadFull(br, t8[:]); err != nil {
		if err == io.EOF {
			return stored, nil // legacy checkpoint, no trailer
		}
		return nil, fmt.Errorf("%w: truncated trailer: %v", ErrCheckpointCorrupt, err)
	}
	if string(t8[:4]) != string(ckptTrailer) {
		return nil, fmt.Errorf("%w: bad trailer magic %q", ErrCheckpointCorrupt, t8[:4])
	}
	if got := binary.LittleEndian.Uint32(t8[4:]); got != sum {
		return nil, fmt.Errorf("%w: crc32c %08x != stored %08x", ErrCheckpointCorrupt, sum, got)
	}
	return stored, nil
}

// Interposition points for SaveParams, swapped by the durability regression
// test to observe the fsync/rename ordering without a kernel crash harness.
var (
	renameFile = os.Rename
	syncDir    = fsyncDir
)

// fsyncDir flushes a directory's metadata so a rename into it survives a
// crash. An empty dir means the current directory.
func fsyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveParams writes a checkpoint file atomically and durably: the bytes land
// in a temp file in the same directory, are fsynced, renamed over path, and
// the parent directory is fsynced last. A crash at any point leaves either
// the old checkpoint or the new one — never a truncated hybrid — and once
// SaveParams returns, the rename itself is on disk: without the directory
// fsync a power loss after rename could resurrect the old file (or nothing),
// silently losing a checkpoint the caller believed durable.
func SaveParams(path string, params []*Param) (err error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = WriteParams(f, params); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = renameFile(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// LoadParams reads a checkpoint file.
func LoadParams(path string, params []*Param) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ReadParams(f, params)
}
