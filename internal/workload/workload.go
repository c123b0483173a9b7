// Package workload provides the synthetic workloads driving the
// performance experiments: the database-snapshot pattern the paper's
// introduction motivates ("most data bases support a snapshot
// operation that freezes the contents of the data base") and the
// zipfian serving mix (Mix).
package workload

import (
	"fmt"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/sim"
	"sero/internal/trace"
)

// Op is one file-system operation produced by a generator.
type Op struct {
	// Kind is the operation to perform.
	Kind OpKind
	// Name is the target file.
	Name string
	// NewName is the rename target (OpRename only).
	NewName string
	// Affinity is the heat-affinity class for creates.
	Affinity uint8
	// Offset is the byte offset of a write; it also positions reads.
	Offset uint64
	// Data is the payload of a write (OpWrite only).
	Data []byte
	// Length is the read size in bytes (OpRead only); 0 reads one
	// block.
	Length int
}

// OpKind enumerates generated operations.
type OpKind int

// Operation kinds.
const (
	OpCreate OpKind = iota
	OpWrite
	OpDelete
	OpHeat
	OpSync
	OpRead
	OpRename
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	case OpHeat:
		return "heat"
	case OpSync:
		return "sync"
	case OpRead:
		return "read"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Applier executes ops one at a time against a file system, caching
// name→ino resolutions across ops. The serving tier drives one Applier
// per session so each op's cost can be measured individually; Apply
// wraps one for whole-stream use. Every error is wrapped with the op
// kind and file name, so a failure deep in a multi-session run is
// attributable to the op that caused it.
type Applier struct {
	fs   *lfs.FS
	inos map[string]lfs.Ino
	buf  []byte // scratch read buffer, grown on demand
}

// NewApplier returns an applier executing against fs.
func NewApplier(fs *lfs.FS) *Applier {
	return &Applier{fs: fs, inos: make(map[string]lfs.Ino)}
}

// lookup resolves a name via the cache, falling back to the FS.
func (a *Applier) lookup(op Op) (lfs.Ino, error) {
	if ino, ok := a.inos[op.Name]; ok {
		return ino, nil
	}
	ino, err := a.fs.Lookup(op.Name)
	if err != nil {
		return 0, fmt.Errorf("workload: %s %s: lookup: %w", op.Kind, op.Name, err)
	}
	a.inos[op.Name] = ino
	return ino, nil
}

// Apply executes one op. Errors are wrapped with the op kind and name.
func (a *Applier) Apply(op Op) error { return a.ApplyTraced(op, nil) }

// ApplyTraced executes one op with per-operation attribution: the
// op's lock-wait and own device time accumulate on task via the FS's
// Traced entry points (serving tier). A nil task behaves exactly like
// Apply.
func (a *Applier) ApplyTraced(op Op, task *trace.Task) error {
	switch op.Kind {
	case OpCreate:
		ino, err := a.fs.CreateTraced(task, op.Name, op.Affinity)
		if err != nil {
			return fmt.Errorf("workload: create %s: %w", op.Name, err)
		}
		a.inos[op.Name] = ino
	case OpWrite:
		ino, err := a.lookup(op)
		if err != nil {
			return err
		}
		if err := a.fs.WriteTraced(task, ino, op.Offset, op.Data); err != nil {
			return fmt.Errorf("workload: write %s: %w", op.Name, err)
		}
	case OpRead:
		ino, err := a.lookup(op)
		if err != nil {
			return err
		}
		n := op.Length
		if n <= 0 {
			n = device.DataBytes
		}
		if cap(a.buf) < n {
			a.buf = make([]byte, n)
		}
		if _, err := a.fs.ReadTraced(task, ino, op.Offset, a.buf[:n]); err != nil {
			return fmt.Errorf("workload: read %s: %w", op.Name, err)
		}
	case OpRename:
		if err := a.fs.RenameTraced(task, op.Name, op.NewName); err != nil {
			return fmt.Errorf("workload: rename %s -> %s: %w", op.Name, op.NewName, err)
		}
		if ino, ok := a.inos[op.Name]; ok {
			delete(a.inos, op.Name)
			a.inos[op.NewName] = ino
		}
	case OpDelete:
		if err := a.fs.DeleteTraced(task, op.Name); err != nil {
			return fmt.Errorf("workload: delete %s: %w", op.Name, err)
		}
		delete(a.inos, op.Name)
	case OpHeat:
		if _, err := a.fs.HeatFileTraced(task, op.Name); err != nil {
			return fmt.Errorf("workload: heat %s: %w", op.Name, err)
		}
	case OpSync:
		if err := a.fs.SyncTraced(task); err != nil {
			return fmt.Errorf("workload: sync: %w", err)
		}
	default:
		return fmt.Errorf("workload: unknown op kind %v", op.Kind)
	}
	return nil
}

// Apply executes an op stream against a file system, creating files on
// demand, and returns counts of applied ops. Errors abort the run:
// generated workloads are supposed to be applicable by construction.
func Apply(fs *lfs.FS, ops []Op) (applied int, err error) {
	a := NewApplier(fs)
	for _, op := range ops {
		if err := a.Apply(op); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// Snapshot generates the database-snapshot pattern: a set of table
// files receives continuous updates; periodically the current state is
// copied into snapshot files which are immediately heated.
type Snapshot struct {
	// Tables is the number of live table files.
	Tables int
	// TableBlocks is each table's size in blocks.
	TableBlocks int
	// Updates is the total number of record updates.
	Updates int
	// SnapshotEvery takes a snapshot after this many updates.
	SnapshotEvery int
	// Affinity is the heat-affinity class assigned to snapshots.
	Affinity uint8
}

// Generate produces the op stream. It panics with a diagnostic on a
// nonsensical configuration instead of emitting a malformed stream.
func (w Snapshot) Generate(rng *sim.RNG) []Op {
	if w.Tables <= 0 || w.TableBlocks <= 0 || w.Updates < 0 || w.SnapshotEvery < 0 {
		panic(fmt.Sprintf("workload: bad Snapshot %+v", w))
	}
	var ops []Op
	for t := 0; t < w.Tables; t++ {
		ops = append(ops, Op{Kind: OpCreate, Name: snapTable(t), Affinity: 0})
	}
	snapID := 0
	for u := 0; u < w.Updates; u++ {
		t := rng.Intn(w.Tables)
		blk := rng.Intn(w.TableBlocks)
		data := make([]byte, device.DataBytes)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		ops = append(ops, Op{
			Kind:   OpWrite,
			Name:   snapTable(t),
			Offset: uint64(blk * device.DataBytes),
			Data:   data,
		})
		if w.SnapshotEvery > 0 && (u+1)%w.SnapshotEvery == 0 {
			ops = append(ops, Op{Kind: OpSync})
			// A snapshot copies each table into a frozen file. The
			// generator emits creates+writes+heat; content here is a
			// marker (the experiment measures placement, not content).
			for t := 0; t < w.Tables; t++ {
				name := fmt.Sprintf("snap-%03d-t%d", snapID, t)
				ops = append(ops, Op{Kind: OpCreate, Name: name, Affinity: w.Affinity})
				data := make([]byte, w.TableBlocks*device.DataBytes)
				for j := range data {
					data[j] = byte(rng.Uint64())
				}
				ops = append(ops,
					Op{Kind: OpWrite, Name: name, Data: data},
					Op{Kind: OpHeat, Name: name},
				)
			}
			snapID++
		}
	}
	ops = append(ops, Op{Kind: OpSync})
	return ops
}

func snapTable(t int) string { return fmt.Sprintf("table-%d", t) }
