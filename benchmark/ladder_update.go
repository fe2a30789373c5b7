package main

import (
	"fmt"
	"os"
	"time"

	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/updates"
)

// ladderUpdate climbs the update class: update-durable.
func ladderUpdate(e *env, L *ladderOut) error {
	w, d := e.w, e.d
	base, err := L.untraced(e)
	if err != nil {
		return err
	}
	streams := base.rep.streams
	n := base.rep.count(nil)
	writes := base.rep.count(ofClass(cWrite))
	rec := base.m.Recovery
	L.set("durable.wal_bytes_per_write", float64(rec.WALBytes)/float64(writes), writes)
	L.set("durable.syncs_per_write", float64(rec.WALSyncs)/float64(writes), writes)
	L.set("durable.checkpoint_s", base.rep.sum(ofClass(cAdmin)).Seconds(), 1)
	L.set("durable.disk_bytes_per_user_byte", float64(base.diskBytes)/float64(d.rawBytes()), 1)
	L.set("durable.replayed_records", float64(base.replayed), 1)
	L.set("durable.restored_indexes", float64(base.restored), 1)
	L.set("updates.merged", float64(base.m.Exec.MergedUpdates), 1)

	top, topRec, err := L.top(e, "durable")
	if err != nil {
		return err
	}
	storeRec := L.tr.rung(w.Name, "store", streams, topRec)
	memory, err := L.storeReplay(e, e.w.config(e.seed), streams, storeRec)
	if err != nil {
		return err
	}
	viaEngine := L.climb(e, newEngineRung(d, e.seed), streams, L.tr.rung(w.Name, "engine", streams, storeRec))

	tTop, tStore, tEngine := top.rep.sum(nil), memory.sum(nil), viaEngine.sum(nil)
	gap := L.printLadder(w.Name, base.rep.sum(nil), []rungRow{
		{"durable", "Store via OpenStore: WAL group commit, checkpoint", tTop},
		{"store", "Store via NewStore, same mode", tStore},
		{"engine", "engine.AdaptiveExecutor + updates.Pending", tEngine},
	})
	L.set("trace.top_rung_s", tTop.Seconds(), n)
	L.set("trace.overhead_s", (tTop - base.rep.sum(nil)).Seconds(), n)
	L.set("trace.ladder_gap_s", gap.Seconds(), n)
	L.setSelf("durable.write_delta_us", top.rep, memory, ofClass(cWrite), 1e3)

	return floorsUpdate(e, L, streams[0])
}

// floorsUpdate times the kernels beside the chain: the ripple merge of
// pending operations into a cracker column, and a bare WAL append with its
// group commit.
func floorsUpdate(e *env, L *ladderOut, seq []op) error {
	d := e.d
	col := cracking.New(d.names[0], d.cols[0], crackConfig(e.seed))
	pend := updates.NewPending()
	row := uint32(d.rows())
	var merge time.Duration
	merged := 0
	for i := range seq {
		o := &seq[i]
		switch {
		case o.kind == kCount && o.preds[0].attr == 0:
			t0 := time.Now()
			merged += pend.MergeRange(col, o.preds[0].lo, o.preds[0].hi)
			merge += time.Since(t0)
			col.SelectRange(o.preds[0].lo, o.preds[0].hi)
		case o.kind == kInsert && o.attr == 0:
			pend.AddInsert(o.v, row)
			row++
		case o.kind == kDelete && o.attr == 0:
			pend.AddDelete(o.v)
		}
	}
	L.set("updates.merge_ns_per_op", perOp(merge, merged), merged)

	dir := e.tmpDir("wal")
	defer os.RemoveAll(dir)
	fs, err := durable.NewOSFS(dir)
	if err != nil {
		return err
	}
	log, err := durable.CreateLog(fs, durable.WALName(1, 0), 1, durable.SyncGroup)
	if err != nil {
		return err
	}
	var appendT time.Duration
	appended := 0
	for i := range seq {
		o := &seq[i]
		rec := durable.Record{Attr: d.names[o.attr], A: o.v, B: o.v2}
		switch o.kind {
		case kInsert:
			rec.Kind = durable.KindInsert
		case kDelete:
			rec.Kind = durable.KindDelete
		case kUpdate:
			rec.Kind = durable.KindUpdate
		default:
			continue
		}
		t0 := time.Now()
		seqNo, err := log.Append(rec)
		if err == nil {
			err = log.Commit(seqNo)
		}
		appendT += time.Since(t0)
		if err != nil {
			log.Close()
			return err
		}
		appended++
	}
	if err := log.Close(); err != nil {
		return err
	}
	L.set("durable.wal_append_us", perOp(appendT, appended)/1e3, appended)
	fmt.Printf("  floors: ripple merge %.0f ns per merged op (%d merged), WAL append+commit %.1f us (%d records, %d fsyncs)\n",
		perOp(merge, merged), merged, perOp(appendT, appended)/1e3, appended, log.Syncs())
	return nil
}
