#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

// CheckpointJournal: the crash-safe persistence behind --checkpoint/--resume
// and the coordination substrate of the sharded runner (src/shard/).
//
// One journal file per sweep, append-only, one line per finished cell. The
// current format (v2) prefixes every record with an FNV-1a 64 checksum of
// the rest of the line:
//
//   pcm-sweep-journal v2 <sweep identity header>
//   <fnv16> cell <idx> ok <attempts> <hexfloat µs> [obs <token>]
//   <fnv16> cell <idx> fail <attempts> <kind> <one-line message>
//
// Appends are flushed line-at-a-time, so a SIGKILL loses at most the cell
// that was mid-write — a torn *final* line is detected and silently ignored
// on resume, exactly as before. The checksum extends that protection to the
// journal's interior: a line corrupted in place (bit rot, a concurrent
// writer gone wrong, a partial block flush) no longer has to *look* torn to
// be caught — it fails its checksum, is skipped, and is *reported* through
// corrupt_lines() instead of silently re-interpreted. Legacy v1 journals
// (no checksum column) are still resumable; appending to one keeps writing
// v1 records so the file stays uniformly parseable.
//
// Measurements are serialised as hexfloat (%a), which round-trips a double
// exactly; a resumed sweep therefore reassembles byte-identical output from
// journalled cells, the property the kill-and-resume and chaos CI jobs
// assert with cmp. `ok` records may carry an opaque `obs <token>` field —
// the cell's encoded metrics snapshot (obs/metrics.hpp) — so resumed and
// sharded sweeps reassemble SweepResult::metrics too, not just the series.
//
// The filename embeds a hash of the identity header (experiment, machine,
// axis, trials, seed, fault plan, retry budget), so a bench that runs
// several sweeps into the same --checkpoint directory gets one journal
// each, and resuming against a journal from a *different* sweep definition
// is refused instead of silently mixing results. Shard workers append to
// suffixed siblings of the same base name (`<base>.journal.shard-K`), which
// the supervisor merges in cell order.

namespace pcm::exec {

/// One journal record: the final outcome of a cell's attempt sequence.
struct JournalEntry {
  std::size_t cell = 0;
  bool ok = false;
  double us = 0.0;      ///< Measured value; meaningful only when ok.
  int attempts = 0;     ///< Attempts consumed (>= 1).
  std::string kind;     ///< Failure classification when !ok.
  std::string message;  ///< One-line failure message when !ok.
  std::string obs{};    ///< Opaque encoded metrics snapshot (ok records
                        ///< only; empty when observability was off).
};

/// FNV-1a 64-bit, the per-line checksum of the v2 journal format.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// What read_journal() found. `entries` is keyed by cell index with
/// later-duplicates-win semantics (a cell re-run after a partial resume
/// keeps its newest outcome).
struct JournalLoad {
  bool exists = false;          ///< File was present and readable.
  bool header_matches = false;  ///< First line matched the given header.
  int version = 0;              ///< 1 or 2; 0 when header_matches is false.
  std::map<std::size_t, JournalEntry> entries;
  std::size_t corrupt_lines = 0;  ///< Interior lines skipped as corrupt.
};

/// The path CheckpointJournal would use for this sweep's journal inside
/// `dir` (without creating or opening anything). The shard supervisor uses
/// this to locate the base journal and its shard siblings for read-only
/// merging.
[[nodiscard]] std::string journal_path(const std::string& dir,
                                       const std::string& experiment,
                                       const std::string& header);

/// Parse a journal file against the expected identity header, without
/// opening it for writing. This is how the shard supervisor merges worker
/// journals it must never append to. Version is dispatched from the header
/// line: v1 lines are trusted as before, v2 lines must pass their checksum.
/// A malformed or checksum-failing *final* line is ignored silently (the
/// torn write of a killed process); any earlier one counts in
/// corrupt_lines.
[[nodiscard]] JournalLoad read_journal(const std::string& path,
                                       const std::string& header);

class CheckpointJournal {
 public:
  /// Open the journal for the sweep identified by `header` inside `dir`
  /// (created if missing). With resume=false any previous journal for this
  /// sweep is truncated; with resume=true its entries are loaded (torn
  /// trailing line ignored, corrupt interior lines skipped and counted) and
  /// appending continues — in the file's own format version, so a v1
  /// journal stays uniformly v1. `suffix` names a shard sibling
  /// (`.shard-K`) of the same sweep's base journal. Throws
  /// std::runtime_error on I/O failure or a resume header mismatch.
  CheckpointJournal(const std::string& dir, const std::string& experiment,
                    const std::string& header, bool resume,
                    const std::string& suffix = "");

  /// Cells loaded from a resumed journal, keyed by cell index (empty for a
  /// fresh journal). Later duplicates win.
  [[nodiscard]] const std::map<std::size_t, JournalEntry>& loaded() const {
    return loaded_;
  }

  /// Interior lines skipped as corrupt while resuming (0 for a fresh
  /// journal). The engine reports these — a corrupt line is data loss the
  /// user should know about, even though the cell simply re-runs.
  [[nodiscard]] std::size_t corrupt_lines() const { return corrupt_lines_; }

  /// Append one finished cell and flush. Thread-safe.
  void append(const JournalEntry& entry);

  [[nodiscard]] const std::string& path() const { return path_; }

  /// The path a shard sibling of this journal would have.
  [[nodiscard]] std::string shard_path(int shard) const;

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mu_;
  std::map<std::size_t, JournalEntry> loaded_;
  std::size_t corrupt_lines_ = 0;
  int version_ = 2;  ///< Format written by append(); 1 when resuming a v1.
};

}  // namespace pcm::exec
