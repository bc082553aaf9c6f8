#include "dist/worker.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dist/protocol.hpp"
#include "util/error.hpp"

namespace clasp::dist {

int worker_serve(campaign_runner& campaign, fd_channel& ch,
                 const shard_assignment& assignment,
                 const worker_chaos& chaos) {
  const std::uint32_t shard = assignment.shard;
  dist_message hello;
  hello.type = msg_type::hello;
  hello.shard = shard;
  hello.hour = assignment.start.hours_since_epoch();
  hello.fingerprint = campaign.fingerprint();
  hello.slot_begin = static_cast<std::uint32_t>(assignment.slot_begin);
  hello.slot_end = static_cast<std::uint32_t>(assignment.slot_end);
  try {
    ch.send(encode_message(hello));
  } catch (const error&) {
    return 1;
  }

  // Frame-level chaos fires once: the resend the coordinator asks for
  // must then go through clean, proving single-group recovery.
  bool bad_crc_pending = chaos.bad_crc_frame >= 0;
  bool corrupt_pending = chaos.corrupt_group >= 0;

  std::vector<campaign_runner::vm_hour_staging> staged;
  for (hour_stamp at = assignment.start; at < assignment.stop; at = at + 1) {
    const std::int64_t h = at.hours_since_epoch();
    if (chaos.hang_at_hour == h) {
      // A wedged worker: alive, silent. The coordinator's heartbeat
      // deadline — not any message — must catch this.
      for (;;) ::pause();
    }
    campaign.stage_shard_hour(at, assignment.slot_begin, assignment.slot_end,
                              staged);
    dist_message group;
    group.type = msg_type::hour_group;
    group.shard = shard;
    group.hour = h;
    group.records.reserve(staged.size());
    for (std::size_t i = 0; i < staged.size(); ++i) {
      group.records.push_back(
          campaign.encode_wal_record(assignment.slot_begin + i, staged[i]));
    }
    if (chaos.exit_at_barrier == h) ::_exit(2);

    dist_message beat;
    beat.type = msg_type::heartbeat;
    beat.shard = shard;
    beat.hour = h;

    bool committed = false;
    while (!committed) {
      try {
        ch.send(encode_message(beat));
        const std::string payload = encode_message(group);
        if (chaos.exit_mid_group == h) {
          ch.send_torn(payload);
          ::_exit(3);
        }
        if (bad_crc_pending && chaos.bad_crc_frame == h) {
          bad_crc_pending = false;
          ch.send_bad_crc(payload);
        } else if (corrupt_pending && chaos.corrupt_group == h) {
          corrupt_pending = false;
          // Flip the last payload byte: inside the last record's bytes,
          // after its CRC was computed. The frame CRC (computed at send,
          // over the damaged bytes) passes; only the per-record CRC in
          // the protocol layer can catch this.
          std::string damaged = payload;
          damaged.back() = static_cast<char>(damaged.back() ^ 0x20);
          ch.send(damaged);
        } else {
          ch.send(payload);
        }
        // Hour barrier: block until the coordinator commits (ack),
        // rejects (resend) or winds down (stop / channel close).
        std::string reply;
        const recv_status rs = ch.recv(reply, -1);
        if (rs == recv_status::closed) return 1;
        if (rs != recv_status::ok) continue;  // damaged reply: resend all
        const dist_message m = decode_message(reply);
        if (m.type == msg_type::ack && m.hour == h) {
          committed = true;
        } else if (m.type == msg_type::stop) {
          return 0;
        }
        // resend (or a stale ack): loop and send the group again.
      } catch (const error&) {
        return 1;
      }
    }
  }
  dist_message bye;
  bye.type = msg_type::bye;
  bye.shard = shard;
  try {
    ch.send(encode_message(bye));
  } catch (const error&) {
    return 1;
  }
  return 0;
}

spawned_worker spawn_worker(campaign_runner& campaign,
                            const shard_assignment& assignment,
                            const worker_chaos& chaos) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw state_error("dist: socketpair failed");
  }
#ifdef __GLIBC__
  // A child starts with every page the coordinator has resident, freed
  // heap the allocator kept included: give that back first.
  ::malloc_trim(0);
#endif
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw state_error("dist: fork failed");
  }
  if (pid == 0) {
    // Child. The campaign is here by copy-on-write; only the serial,
    // immutable-read staging path may run. _exit on every path out —
    // running destructors or atexit handlers would flush parent-owned
    // stream buffers into parent-owned files.
    ::close(sv[0]);
    int code = 1;
    try {
      fd_channel ch(sv[1]);
      code = worker_serve(campaign, ch, assignment, chaos);
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  ::close(sv[1]);
  spawned_worker w;
  w.pid = pid;
  w.channel = std::make_unique<fd_channel>(sv[0]);
  return w;
}

}  // namespace clasp::dist
