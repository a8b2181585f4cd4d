package lamsd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lams/internal/faultinject"
	"lams/internal/mesh"
	"lams/pkg/lams"
)

// The durable mesh store is a single snapshot file in -data-dir holding
// every resident mesh (coordinates and elements through the streaming
// Triangle/TetGen codecs) plus its service metadata (id, tenant, ordering,
// run counts). Snapshots are written to a temp file and renamed into place,
// so a crash mid-snapshot leaves the previous complete snapshot intact —
// on restart the loader sees either the old file or the new one, never a
// torn mix. The file layout is line-oriented headers with length-prefixed
// codec payloads:
//
//	lamsd-snapshot v1\n
//	{manifest JSON}\n
//	for each mesh:
//	  {meta JSON incl. node_bytes, ele_bytes}\n
//	  <node_bytes bytes of .node payload><ele_bytes bytes of .ele payload>
const (
	snapshotName  = "meshes.snap"
	snapshotTmp   = "meshes.snap.tmp"
	snapshotMagic = "lamsd-snapshot v1"
)

// maxSnapshotPayload caps a single mesh's node or ele section; a corrupt
// length prefix must not provoke an arbitrary allocation.
const maxSnapshotPayload = 1 << 31

// maxRestoreVerts is the codec vertex cap used on restore. Deliberately
// larger than any runtime -max-verts: shrinking the limit across a restart
// must not drop meshes that were legally uploaded under the old one.
const maxRestoreVerts = 1 << 30

type snapManifest struct {
	Saved   time.Time `json:"saved"`
	Count   int       `json:"count"`
	NextSeq uint64    `json:"next_seq"`
}

type snapMeta struct {
	ID          string    `json:"id"`
	Seq         uint64    `json:"seq"`
	Name        string    `json:"name"`
	Tenant      string    `json:"tenant"`
	Dim         int       `json:"dim"`
	Ordering    string    `json:"ordering"`
	OrderTimeNS int64     `json:"order_time_ns"`
	Created     time.Time `json:"created"`
	SmoothRuns  int64     `json:"smooth_runs"`
	NodeBytes   int64     `json:"node_bytes"`
	EleBytes    int64     `json:"ele_bytes"`
}

// Snapshot writes the resident meshes to the data directory, atomically
// (temp file + rename). It is safe to call concurrently with request
// traffic: each mesh is cloned under its read lock, so a long snapshot
// never blocks smooths beyond the per-mesh clone.
func (s *Server) Snapshot() error {
	if s.cfg.DataDir == "" {
		return fmt.Errorf("lamsd: no data directory configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Capture the mutation counter before reading the records: anything
	// that mutates after this point dirties the NEXT snapshot.
	muts := s.store.Mutations()
	if err := s.writeSnapshot(); err != nil {
		s.metrics.snapshotErrs.Add(1)
		return err
	}
	s.lastSnap.Store(muts)
	s.metrics.snapshots.Add(1)
	return nil
}

// snapshotIfDirty snapshots only when the store mutated since the last
// successful snapshot; the periodic loop and graceful shutdown use it so
// an idle server stops rewriting identical files.
func (s *Server) snapshotIfDirty() error {
	if s.cfg.DataDir == "" || s.store.Mutations() == s.lastSnap.Load() {
		return nil
	}
	return s.Snapshot()
}

func (s *Server) writeSnapshot() error {
	// Chaos point: a failed snapshot must leave the previous complete
	// snapshot intact and surface only as a snapshot_errors tick.
	if err := s.cfg.Faults.Fire(faultinject.PointSnapshotWrite); err != nil {
		return err
	}
	recs := s.store.List()
	return writeFileAtomic(filepath.Join(s.cfg.DataDir, snapshotName), "snapshot", 1<<20, func(bw *bufio.Writer) error {
		fmt.Fprintf(bw, "%s\n", snapshotMagic)
		manifest := snapManifest{Saved: time.Now().UTC(), Count: len(recs), NextSeq: s.store.Seq()}
		if err := writeJSONLine(bw, manifest); err != nil {
			return err
		}
		var nodeBuf, eleBuf bytes.Buffer
		for _, rec := range recs {
			if err := writeSnapshotRecord(bw, rec, &nodeBuf, &eleBuf); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFileAtomic replaces the file at path with what write produces, so
// a crash leaves either the previous file or the new one, never a torn
// mix. It writes path+".tmp" through a bufSize-byte buffer (0 selects
// bufio's default), flushes, fsyncs and closes it, renames it over path,
// and fsyncs the directory so the rename itself is durable (best effort:
// not every filesystem supports directory fsync). On any failure the temp
// file is removed and the previous file is left as it was. Errors of its
// own steps read "lamsd: <what>: ..."; write's errors are returned as is.
func writeFileAtomic(path, what string, bufSize int, write func(*bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lamsd: %s: %w", what, err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	defer f.Close()

	bw := bufio.NewWriterSize(f, bufSize)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("lamsd: %s: %w", what, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("lamsd: %s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lamsd: %s: %w", what, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("lamsd: %s: %w", what, err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

func writeSnapshotRecord(bw *bufio.Writer, rec *meshRecord, nodeBuf, eleBuf *bytes.Buffer) error {
	// Clone under the read lock, serialize off it: a mesh mid-download or
	// mid-listing stays responsive while its codec payload is produced.
	rec.mu.RLock()
	var clone2 *lams.Mesh
	var clone3 *lams.TetMesh
	if rec.dim == 3 {
		clone3 = rec.tet.Clone()
	} else {
		clone2 = rec.mesh.Clone()
	}
	rec.mu.RUnlock()

	nodeBuf.Reset()
	eleBuf.Reset()
	var err error
	if clone3 != nil {
		err = clone3.WriteNodeEle(nodeBuf, eleBuf)
	} else {
		err = clone2.WriteNodeEle(nodeBuf, eleBuf)
	}
	if err != nil {
		return fmt.Errorf("lamsd: snapshot mesh %s: %w", rec.id, err)
	}

	rec.metaMu.Lock()
	meta := snapMeta{
		ID:          rec.id,
		Seq:         rec.seq,
		Name:        rec.name,
		Tenant:      rec.tenant,
		Dim:         rec.dim,
		Ordering:    rec.ordering,
		OrderTimeNS: int64(rec.orderTime),
		Created:     rec.created,
		SmoothRuns:  rec.smoothRuns,
		NodeBytes:   int64(nodeBuf.Len()),
		EleBytes:    int64(eleBuf.Len()),
	}
	rec.metaMu.Unlock()

	if err := writeJSONLine(bw, meta); err != nil {
		return err
	}
	if _, err := bw.Write(nodeBuf.Bytes()); err != nil {
		return fmt.Errorf("lamsd: snapshot: %w", err)
	}
	if _, err := bw.Write(eleBuf.Bytes()); err != nil {
		return fmt.Errorf("lamsd: snapshot: %w", err)
	}
	return nil
}

func writeJSONLine(bw *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("lamsd: snapshot: %w", err)
	}
	b = append(b, '\n')
	if _, err := bw.Write(b); err != nil {
		return fmt.Errorf("lamsd: snapshot: %w", err)
	}
	return nil
}

// loadSnapshot restores the mesh store from the data directory's snapshot
// file, if one exists. Called once from Open, before the server accepts
// traffic.
func (s *Server) loadSnapshot() error {
	path := filepath.Join(s.cfg.DataDir, snapshotName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil // fresh data dir
	}
	if err != nil {
		return err
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<20)
	magic, err := readLine(br)
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("unrecognized snapshot header %q", magic)
	}
	var manifest snapManifest
	if err := readJSONLine(br, &manifest); err != nil {
		return fmt.Errorf("reading manifest: %w", err)
	}
	for i := 0; i < manifest.Count; i++ {
		rec, err := readSnapshotRecord(br)
		if err != nil {
			return fmt.Errorf("mesh %d/%d: %w", i+1, manifest.Count, err)
		}
		if err := s.store.restore(rec); err != nil {
			return err
		}
		s.metrics.restored.Add(1)
	}
	// nextSeq advances past every restored record inside restore; the
	// manifest value additionally covers ids deleted after being assigned.
	if manifest.NextSeq > s.store.Seq() {
		s.store.mu.Lock()
		s.store.nextSeq = manifest.NextSeq
		s.store.mu.Unlock()
	}
	return nil
}

func readSnapshotRecord(br *bufio.Reader) (*meshRecord, error) {
	var meta snapMeta
	if err := readJSONLine(br, &meta); err != nil {
		return nil, err
	}
	if meta.Dim != 2 && meta.Dim != 3 {
		return nil, fmt.Errorf("mesh %s: dim %d", meta.ID, meta.Dim)
	}
	if meta.NodeBytes < 0 || meta.NodeBytes > maxSnapshotPayload ||
		meta.EleBytes < 0 || meta.EleBytes > maxSnapshotPayload {
		return nil, fmt.Errorf("mesh %s: implausible payload sizes (%d, %d)", meta.ID, meta.NodeBytes, meta.EleBytes)
	}
	node := make([]byte, meta.NodeBytes)
	if _, err := io.ReadFull(br, node); err != nil {
		return nil, fmt.Errorf("mesh %s: truncated node payload: %w", meta.ID, err)
	}
	ele := make([]byte, meta.EleBytes)
	if _, err := io.ReadFull(br, ele); err != nil {
		return nil, fmt.Errorf("mesh %s: truncated ele payload: %w", meta.ID, err)
	}

	rec := &meshRecord{
		id:         meta.ID,
		seq:        meta.Seq,
		created:    meta.Created,
		name:       meta.Name,
		tenant:     meta.Tenant,
		dim:        meta.Dim,
		ordering:   meta.Ordering,
		orderTime:  time.Duration(meta.OrderTimeNS),
		smoothRuns: meta.SmoothRuns,
	}
	if rec.tenant == "" {
		rec.tenant = DefaultTenant
	}
	if meta.Dim == 3 {
		coords, err := mesh.ReadNode3(bytes.NewReader(node), maxRestoreVerts)
		if err != nil {
			return nil, fmt.Errorf("mesh %s: %w", meta.ID, err)
		}
		tets, err := mesh.ReadTetEle(bytes.NewReader(ele), len(coords), 8*len(coords))
		if err != nil {
			return nil, fmt.Errorf("mesh %s: %w", meta.ID, err)
		}
		m, err := mesh.NewTet(coords, tets)
		if err != nil {
			return nil, fmt.Errorf("mesh %s: %w", meta.ID, err)
		}
		rec.tet = m
		rec.summary = m.Summary()
		return rec, nil
	}
	coords, err := mesh.ReadNode(bytes.NewReader(node), maxRestoreVerts)
	if err != nil {
		return nil, fmt.Errorf("mesh %s: %w", meta.ID, err)
	}
	tris, err := mesh.ReadEle(bytes.NewReader(ele), len(coords), 4*len(coords))
	if err != nil {
		return nil, fmt.Errorf("mesh %s: %w", meta.ID, err)
	}
	m, err := mesh.New(coords, tris)
	if err != nil {
		return nil, fmt.Errorf("mesh %s: %w", meta.ID, err)
	}
	rec.mesh = m
	rec.summary = m.Summary()
	return rec, nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return line[:len(line)-1], nil
}

func readJSONLine(br *bufio.Reader, dst any) error {
	line, err := readLine(br)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(line), dst)
}

// startSnapshotLoop begins the periodic snapshot timer; stopped by Close.
func (s *Server) startSnapshotLoop() {
	s.stopSnap = make(chan struct{})
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		t := time.NewTicker(s.cfg.SnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// Failures are counted (snapshot_errors) and retried on
				// the next tick; the previous complete snapshot stays in
				// place either way.
				_ = s.snapshotIfDirty()
			case <-s.stopSnap:
				return
			}
		}
	}()
}
