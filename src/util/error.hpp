// Error types shared across the CLASP libraries.
//
// All recoverable failures are reported with exceptions derived from
// clasp::error so callers can catch the library's failures with a single
// handler while still distinguishing categories.
#pragma once

#include <stdexcept>
#include <string>

namespace clasp {

// Root of the library's exception hierarchy.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

// A caller violated a documented precondition (bad argument, out-of-range
// index, malformed identifier, ...).
class invalid_argument_error : public error {
 public:
  explicit invalid_argument_error(const std::string& what) : error(what) {}
};

// A lookup for an entity (AS, router, server, series, ...) found nothing.
class not_found_error : public error {
 public:
  explicit not_found_error(const std::string& what) : error(what) {}
};

// An operation was attempted in a state that does not permit it
// (e.g. measuring from a VM that was never deployed).
class state_error : public error {
 public:
  explicit state_error(const std::string& what) : error(what) {}
};

// A configured budget (monetary, test-slot, capacity) was exhausted.
class budget_exceeded_error : public error {
 public:
  explicit budget_exceeded_error(const std::string& what) : error(what) {}
};

// The storage substrate failed underneath us (ENOSPC, short write, an
// unwritable directory). The operation was aborted without damaging
// previously durable state — e.g. a failed checkpoint publish leaves the
// old CURRENT checkpoint valid.
class storage_error : public error {
 public:
  explicit storage_error(const std::string& what) : error(what) {}
};

// Durable bytes failed an integrity check in a place crash-tearing cannot
// explain (a CRC mismatch on a complete frame, a corrupt frame on a
// shard channel). Unlike a torn tail this is never silently dropped: the
// reader refuses the data and the caller decides (re-request, restore
// from a checkpoint, fail loudly).
class corruption_error : public error {
 public:
  explicit corruption_error(const std::string& what) : error(what) {}
};

}  // namespace clasp
