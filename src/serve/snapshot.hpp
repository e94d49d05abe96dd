// Snapshot files: one wire Snapshot frame written to disk, byte-for-byte the
// frame a Transport would carry. The same format serves three masters — the
// job server's preemption checkpoints (spool files), the CLI's
// --snapshot-out/--snapshot-in, and the client-facing Snapshot reply — so a
// suspended job's spool file can be copied out and resubmitted as an initial
// condition, and a --snapshot-out file can seed a served job.
#pragma once

#include <string>

#include "domain/wire.hpp"

namespace bonsai::serve {

// Write `snap` as one encoded Snapshot frame; throws std::runtime_error on
// I/O failure (the path names the problem).
void write_snapshot_file(const std::string& path, const domain::wire::SnapshotMsg& snap);

// Read and decode a snapshot file. Files written at any wire version from
// kSnapshotLayoutVersion to kVersion load (the Snapshot bytes have not
// changed across them); an older or newer file is a WireError naming its
// version and the accepted range. Throws std::runtime_error when the file
// cannot be read and wire::WireError when its bytes are not a valid Snapshot
// frame (truncated, corrupted — the wire validation applies to files exactly
// as to sockets).
domain::wire::SnapshotMsg read_snapshot_file(const std::string& path);

// Concatenate a snapshot's per-rank sets into one global set (array order:
// rank 0 first). The per-rank split only matters for bit-for-bit resume at
// the same rank count; as an initial condition any rank count works.
ParticleSet flatten_snapshot(const domain::wire::SnapshotMsg& snap);

// A snapshot file as an initial condition (--snapshot-in): the flattened
// particles of read_snapshot_file. Throws std::runtime_error naming the file,
// the particle and the field when a position, velocity or mass is not finite.
ParticleSet read_initial_condition(const std::string& path);

}  // namespace bonsai::serve
