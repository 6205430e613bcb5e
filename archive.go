package stormtune

import (
	"fmt"
	"io"
	"strings"

	"stormtune/internal/archive"
	"stormtune/internal/core"
	"stormtune/internal/journal"
)

// Session-archive types re-exported from the archive and core packages.
type (
	// Archive is a store of tuning evidence: archived session states
	// plus compact per-trial records, keyed by topology fingerprint and
	// a feature vector. Open a persistent one with OpenArchive, an
	// in-memory one with NewMemArchive, and hand it to sessions via
	// TunerOptions.Archive / WatchOptions.Archive or query it directly
	// with QueryArchive.
	Archive = archive.Store
	// DiskArchive is the persistent implementation: an append-only
	// JSON-lines segment log, crash-safe (a torn tail is truncated on
	// open) and fsynced on seal. Its GC method compacts the log
	// atomically and drops unsealed records.
	DiskArchive = archive.Disk
	// CorruptRecordError is what OpenArchive and OpenFleetLog return
	// (wrapped; match it with errors.As) for a bad record that cannot
	// be a torn crash tail. The file is left as it was.
	CorruptRecordError = journal.CorruptError
	// MemArchive is the in-memory implementation, for tests and
	// ephemeral cross-session sharing within one process.
	MemArchive = archive.Mem
	// ArchiveMeta identifies one archived session: key, topology
	// fingerprint and name, strategy, parameter set, seed, features.
	ArchiveMeta = archive.SessionMeta
	// ArchiveRecord is one archived session: its meta, per-trial
	// evidence, sealed flag and (when sealed) serialized session state.
	ArchiveRecord = archive.SessionRecord
	// ArchiveTrial is one compact archived trial record.
	ArchiveTrial = archive.TrialRecord
	// ArchiveFeatures is the topology feature vector similarity ranking
	// uses: component counts, depth, fan-out, TIIM class, contention
	// share and cluster dimensions.
	ArchiveFeatures = archive.Features
	// ArchiveRanked is one similarity-ranked QueryArchive result.
	ArchiveRanked = archive.Ranked
	// WarmStartOptions enable transfer learning from an Archive:
	// warm-start configurations from prior incumbents and an optional
	// archived-runs prior on the GP mean, guarded by a minimum donor
	// similarity. Off by default.
	WarmStartOptions = core.WarmStartOptions
	// TransferSeed is the materialized transfer a warm-started session
	// applied: donor identity, similarity, warm-start points and the
	// prior training set. Serialized into snapshots so a resumed run
	// reapplies the identical transfer.
	TransferSeed = core.TransferSeed
)

// OpenArchive opens (creating if needed) the persistent archive rooted
// at dir. Partial trailing writes from a crash are truncated away;
// corruption anywhere earlier is a *CorruptRecordError.
func OpenArchive(dir string) (*DiskArchive, error) { return archive.Open(dir) }

// NewMemArchive builds an empty in-memory archive.
func NewMemArchive() *MemArchive { return archive.NewMem() }

// ExtractArchiveFeatures computes a topology's feature vector against
// a cluster spec — what SessionMeta carries and similarity ranking
// compares.
func ExtractArchiveFeatures(t *Topology, spec ClusterSpec) ArchiveFeatures {
	return archive.Extract(t, spec)
}

// QueryArchive returns the top-k archived sessions most relevant to a
// topology, best first: exact fingerprint matches outrank any feature
// distance, then descending similarity.
func QueryArchive(a Archive, fp uint64, f ArchiveFeatures, k int) []ArchiveRanked {
	return archive.Query(a, fp, f, k)
}

// ExportArchive writes every record as one JSON line — the
// `stormtune archive export` format ImportArchive reads back.
func ExportArchive(a Archive, w io.Writer) error { return archive.ExportStore(a, w) }

// ImportArchive merges exported records into a, skipping keys that
// already exist, and reports how many were imported.
func ImportArchive(a Archive, r io.Reader) (int, error) { return archive.ImportStore(a, r) }

// deriveArchiveKey builds the deterministic archive key of a new run:
// a base identifying topology+strategy+seed, suffixed with a run
// counter so re-running the same tuning setup archives a fresh record
// while resume (which pins the stored key) re-attaches.
func deriveArchiveKey(a Archive, topoName string, fp uint64, strategy string, seed int64) string {
	base := fmt.Sprintf("%s-%016x/%s/s%d", topoName, fp, strategy, seed)
	n := 1
	for _, k := range a.Keys() {
		if k == base || strings.HasPrefix(k, base+"#") {
			n++
		}
	}
	return fmt.Sprintf("%s#%d", base, n)
}
