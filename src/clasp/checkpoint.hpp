// Crash-consistent checkpoint/resume for campaign replay.
//
// A multi-month campaign replay can be killed — operator Ctrl-C, batch
// scheduler preemption, crash — at any point. The durability layer makes
// that recoverable with byte-identical output: because every (VM slot,
// hour) owns a counter-based RNG stream, fault events come from the
// precomputed fault_plan and link conditions are pure, an hour is a pure
// function of state a base checkpoint already holds. Recovery restores
// the base and re-executes the hours since it; nothing per hour is
// logged.
//
// On-disk layout under a campaign's checkpoint directory:
//
//   <dir>/CURRENT             name of the published checkpoint ("ckpt-<h>")
//   <dir>/ckpt-<h>/MANIFEST   magic, version, fingerprint, cursor and the
//                             cursor of the base it builds on (+CRC32)
//   <dir>/ckpt-<h>/ledger.bin state re-execution cannot rebuild (+CRC32):
//                             counters, outage windows, the platform-wide
//                             cloud ledger, the swarm ledgers
//   <dir>/ckpt-<b>/tsdb.snap  full TSDB snapshot (tsdb::snapshot_to)   } only
//   <dir>/ckpt-<b>/state.bin  full campaign + cloud state (+CRC32)     } in a base
//
// A base is a full checkpoint: its MANIFEST names itself as the base.
// Every other checkpoint is its base plus the hours [base, cursor),
// which resume re-executes.
//
// Publish protocol (campaign_runner::checkpoint), at each cadence point:
//  * cadence publish: write MANIFEST + ledger.bin into ckpt-<h>.staging,
//    fs::rename it to ckpt-<h>, flip CURRENT (write-tmp + rename). The
//    bytes written are the ledger and the manifest: a few kilobytes,
//    whatever the window.
//  * full base instead once the hours since the last base exceed the
//    hours that base covers. Each base then covers more than twice the
//    hours of the one before, so the bytes written stay linear in the
//    window and a resume re-executes at most half of the hours run so
//    far. Also a full base when another campaign wrote the shared store
//    since the last publish (its points are in no base of this
//    campaign), for the anchor publish, and into a directory other than
//    the campaign's checkpoint_dir. Same staging, rename and CURRENT
//    flip.
//  * ledger refresh, when no hour ran since the last publish (the final
//    publish after the storage bill): the MANIFEST would not change, so
//    only the published ledger.bin is replaced (write-tmp + rename).
// After the flip, GC removes every ckpt-* the new MANIFEST does not name.
// A kill at any step leaves either the old or the new checkpoint fully
// intact: before the flip the staged directory is an unnamed orphan GC
// removes; after it, the superseded checkpoints are. Only a process kill
// is covered: nothing calls fsync, so an OS crash or power loss can lose
// writes the kernel had not yet made durable.
//
// Recovery (campaign_runner::resume): restore the base's snapshot and
// state, re-execute [base, cursor) through run_hour (on the worker pool
// when workers != 1) with the outage windows at the head of the
// checkpoint's ledger.bin, then load that ledger over the result: the
// platform-wide cloud, swarm and outage state other campaigns change.
// Hours after the cursor that the killed process had run simply run
// again. Compatibility is versioned: kCheckpointVersion bumps on any
// format change, and resume rejects other versions rather than guessing
// (see DESIGN.md, "Durability & crash recovery").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace clasp {

// Bump on any change to the manifest, state.bin, ledger.bin or TSDB
// snapshot encoding. Old checkpoints are then rejected, not migrated: a
// campaign replay is cheap to restart relative to silent corruption.
// v2: state.bin carries the pre-test swarm ledgers (account month quota
// plus per-probe credits) after the cloud state.
// v3: incremental checkpoints. The MANIFEST names a base and sealed WAL
// segments; a checkpoint that is not a base carries ledger.bin instead
// of tsdb.snap + state.bin.
// v4: recovery by re-execution. The MANIFEST names only its base; the
// WAL and its segments are gone.
// v5: state.bin carries each VM's someta summary (tests, saturated
// tests, peak CPU) instead of its per-test sample history.
inline constexpr std::uint32_t kCheckpointVersion = 5;

// Parsed MANIFEST of one checkpoint.
struct checkpoint_info {
  std::uint32_t version{0};
  std::uint64_t fingerprint{0};   // campaign identity hash
  std::int64_t cursor_hours{0};   // next hour to run, hours since epoch
  std::int64_t base_hours{0};     // cursor of the base checkpoint
                                  // (cursor_hours when this is a base)

  // "ckpt-<base_hours>", relative to the checkpoint directory.
  std::string base_name() const;
};

// Path of the published checkpoint under `dir` (what CURRENT points at),
// or nullopt when no checkpoint has been published. Throws state_error
// when CURRENT names a directory that does not exist (torn GC — should
// be impossible under the publish protocol).
std::optional<std::string> current_checkpoint(const std::string& dir);

// Read and verify a checkpoint's MANIFEST. Throws invalid_argument_error
// on a corrupt or version-mismatched manifest, or one whose base lies
// after its cursor.
checkpoint_info read_checkpoint_info(const std::string& checkpoint_path);

// Test hook: make the next `count` checkpoint file writes fail as if the
// disk were full (ENOSPC / short write). Lets tests drive the publish
// failure path — partial staging dir quarantined, storage_error thrown,
// old CURRENT left valid — without actually filling a filesystem.
void set_checkpoint_write_failures_for_testing(int count);

// Test hook: stop the next publish dead at `point`, leaving the
// directory exactly as a process kill there would (no quarantine, no
// cleanup), by throwing checkpoint_killed_for_testing.
enum class publish_kill_point {
  none,
  after_directory_swap,  // a republished hour's old dir has the staging name
  before_gc,             // CURRENT flipped, superseded checkpoints remain
};
void set_publish_kill_point_for_testing(publish_kill_point point);
struct checkpoint_killed_for_testing {
  publish_kill_point point;
};

}  // namespace clasp
