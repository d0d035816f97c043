#pragma once
// Checkpoint/restart for the greedy engine.
//
// Summit allocations are time-boxed — the paper's whole baseline choice
// (100 nodes, §IV-A) exists because smaller runs exceed the 2-hour limit.
// A production deployment therefore needs to stop after N iterations,
// persist the greedy state (selections so far + the spliced tumor matrix),
// and resume in a later allocation: Engine::checkpoint() takes the snapshot
// and Engine's resume constructor continues from it (core/session.hpp). A
// run resumed from any snapshot replays the remaining iterations
// bit-identically (the greedy is memoryless given the spliced tumor matrix).
// State is a plain-text stream compatible with the repository's other
// formats.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/engine.hpp"

namespace multihit {

struct CheckpointState {
  std::uint32_t hits = 4;
  bool bit_splicing = true;
  GreedyResult progress;  ///< iterations completed so far
  BitMatrix tumor;        ///< tumor matrix after those iterations
};

/// Serialization ("multihit-checkpoint v2"): plain-text header + sparse bit
/// list, closed by an FNV-1a checksum line over the payload, so truncated or
/// corrupted (bit-flipped) streams are rejected instead of silently
/// misparsing. Throws std::runtime_error on malformed input and
/// std::ios_base::failure on I/O errors.
void write_checkpoint(std::ostream& out, const CheckpointState& state);
CheckpointState read_checkpoint(std::istream& in);
void save_checkpoint(const std::string& path, const CheckpointState& state);
CheckpointState load_checkpoint(const std::string& path);

}  // namespace multihit
