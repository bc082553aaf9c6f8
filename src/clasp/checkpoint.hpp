// Crash-consistent checkpoint/resume for campaign replay.
//
// A multi-month campaign replay can be killed — operator Ctrl-C, batch
// scheduler preemption, crash — at any point. The durability layer makes
// that recoverable with byte-identical output: because every (VM slot,
// hour) owns a counter-based RNG stream, the only state a resume needs is
// *where the campaign was* plus the accumulated results; re-running any
// hour reproduces it bit-for-bit.
//
// On-disk layout under a campaign's checkpoint directory:
//
//   <dir>/CURRENT             name of the published checkpoint ("ckpt-<h>")
//   <dir>/ckpt-<h>/MANIFEST   magic, version, fingerprint, cursor, the base
//                             it builds on and its sealed segments (+CRC32)
//   <dir>/ckpt-<h>/ledger.bin state WAL replay cannot rebuild (+CRC32):
//                             counters, outage windows, the platform-wide
//                             cloud ledger, the swarm ledgers
//   <dir>/ckpt-<b>/tsdb.snap  full TSDB snapshot (tsdb::snapshot_to)   } only
//   <dir>/ckpt-<b>/state.bin  full campaign + cloud state (+CRC32)     } in a base
//   <dir>/wal-<f>-<e>.log     sealed segment: the WAL of hours [f, e)
//   <dir>/wal.log             per-(VM, hour) records since the checkpoint
//
// A base is a full checkpoint: its MANIFEST names itself as the base and
// no segments, and it holds tsdb.snap + state.bin instead of ledger.bin.
// Every other checkpoint is the base plus the segments its MANIFEST names,
// which cover the hours from the base's cursor to its own, contiguously.
//
// Publish protocol (campaign_runner::checkpoint), at each cadence point:
//  * seal: write MANIFEST + ledger.bin into ckpt-<h>.staging, close
//    wal.log and hard-link it as wal-<prev>-<h>.log, fs::rename the
//    staging dir to ckpt-<h>, flip CURRENT (write-tmp + rename), then
//    unlink wal.log and open a fresh one. The bytes written are the
//    ledger and the manifest: a few kilobytes, whatever the window.
//  * full base instead, when the sealed segments would outweigh the base
//    (geometric compaction), when another campaign wrote the shared
//    store since the last publish (its points are in no segment of this
//    campaign), for the anchor publish (no WAL open yet), or into a
//    directory other than the campaign's checkpoint_dir (which never
//    touches the WAL). Same staging, rename and CURRENT flip; the WAL is
//    then simply restarted.
//  * ledger refresh, when no hour ran since the last publish (the final
//    publish after the storage bill): the MANIFEST would not change, so
//    only the published ledger.bin is replaced (write-tmp + rename).
// After the flip, GC removes every ckpt-* and wal-*.log the new MANIFEST
// does not name. A kill at any step leaves either the old or the new
// checkpoint fully intact: before the flip wal.log still holds every
// unpublished hour (the segment link is an unnamed orphan GC removes);
// after it, a wal.log that was not yet replaced holds only hours the
// MANIFEST covers, which resume skips as stale. Only a process kill is
// covered: nothing calls fsync, so an OS crash or power loss can lose
// writes the kernel had not yet made durable.
//
// Recovery (campaign_runner::resume): restore the base's snapshot and
// state, replay every sealed segment through commit_hour_group (a
// segment must hold exactly its hours as complete, CRC-valid groups; a
// torn tail, a bad CRC or a missing hour is a corruption_error), load
// the checkpoint's ledger.bin over the result, then replay the wal.log
// tail. An hour of the tail is durable only when all vm_count() slot
// records of that hour are present and CRC-valid; a torn tail or a
// partial group is dropped and the hour simply re-runs. The replayed
// tail is then sealed like any cadence publish. Compatibility is
// versioned: kCheckpointVersion bumps on any format change, and resume
// rejects other versions rather than guessing (see DESIGN.md,
// "Durability & crash recovery").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace clasp {

// Bump on any change to the manifest, state.bin, ledger.bin, WAL record
// or TSDB snapshot encoding. Old checkpoints are then rejected, not
// migrated: a campaign replay is cheap to restart relative to silent
// corruption.
// v2: state.bin carries the pre-test swarm ledgers (account month quota
// plus per-probe credits) after the cloud state.
// v3: incremental checkpoints. The MANIFEST names a base and sealed WAL
// segments; a checkpoint that is not a base carries ledger.bin instead
// of tsdb.snap + state.bin.
inline constexpr std::uint32_t kCheckpointVersion = 3;

// One sealed WAL segment: the complete hour groups of [first, end).
struct sealed_segment {
  std::int64_t first_hours{0};  // hours since epoch
  std::int64_t end_hours{0};
  std::uint64_t bytes{0};       // file size, every frame CRC-valid
  // "wal-<first>-<end>.log", relative to the checkpoint directory.
  std::string file_name() const;
};

// Parsed MANIFEST of one checkpoint.
struct checkpoint_info {
  std::uint32_t version{0};
  std::uint64_t fingerprint{0};   // campaign identity hash
  std::int64_t cursor_hours{0};   // next hour to run, hours since epoch
  std::int64_t base_hours{0};     // cursor of the base checkpoint
                                  // (cursor_hours when this is a base)
  std::uint64_t base_bytes{0};    // the base's tsdb.snap + state.bin
  std::vector<sealed_segment> segments;  // base cursor .. cursor, in order

  // "ckpt-<base_hours>", relative to the checkpoint directory.
  std::string base_name() const;
  std::uint64_t segment_bytes() const;
};

// Path of the published checkpoint under `dir` (what CURRENT points at),
// or nullopt when no checkpoint has been published. Throws state_error
// when CURRENT names a directory that does not exist (torn GC — should
// be impossible under the publish protocol).
std::optional<std::string> current_checkpoint(const std::string& dir);

// Read and verify a checkpoint's MANIFEST. Throws invalid_argument_error
// on a corrupt or version-mismatched manifest, or one whose segments do
// not run contiguously from the base's cursor to its own.
checkpoint_info read_checkpoint_info(const std::string& checkpoint_path);

// Test hook: make the next `count` checkpoint file writes fail as if the
// disk were full (ENOSPC / short write). Lets tests drive the publish
// failure path — partial staging dir quarantined, storage_error thrown,
// old CURRENT left valid — without actually filling a filesystem.
void set_checkpoint_write_failures_for_testing(int count);

// Test hook: stop the next publish dead at `point`, leaving the
// directory exactly as a process kill there would (no quarantine, no
// cleanup), by throwing checkpoint_killed_for_testing.
enum class seal_kill_point {
  none,
  after_segment_link,    // segment linked, CURRENT still names the old one
  after_current_flip,    // CURRENT flipped, wal.log not yet replaced
  after_directory_swap,  // a republished hour's old dir has the staging name
};
void set_seal_kill_point_for_testing(seal_kill_point point);
struct checkpoint_killed_for_testing {
  seal_kill_point point;
};

}  // namespace clasp
