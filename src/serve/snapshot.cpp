#include "serve/snapshot.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace bonsai::serve {

void write_snapshot_file(const std::string& path, const domain::wire::SnapshotMsg& snap) {
  const std::vector<std::uint8_t> frame = domain::wire::encode_snapshot(snap);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) throw std::runtime_error("snapshot: write failed: " + path);
}

domain::wire::SnapshotMsg read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("snapshot: cannot open for reading: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(frame.data()), size);
  if (!in) throw std::runtime_error("snapshot: read failed: " + path);
  // A file keeps the version it was written at, so one written before the
  // last wire bump carries an older header version than the decoder's. Any
  // version since the Snapshot layout last changed has the same bytes: it
  // decodes as the current version. (A short or foreign header is left for
  // the decoder to name.)
  namespace wire = domain::wire;
  std::uint32_t magic = 0;
  if (frame.size() >= wire::kHeaderBytes) std::memcpy(&magic, frame.data(), sizeof magic);
  if (magic == wire::kMagic) {
    const auto version = static_cast<std::uint16_t>(frame[4] | frame[5] << 8);
    if (version < wire::kSnapshotLayoutVersion || version > wire::kVersion)
      throw wire::WireError("snapshot: " + path + ": file version " + std::to_string(version) +
                            " is not readable (accepted versions " +
                            std::to_string(wire::kSnapshotLayoutVersion) + " to " +
                            std::to_string(wire::kVersion) + ")");
    frame[4] = static_cast<std::uint8_t>(wire::kVersion & 0xFF);
    frame[5] = static_cast<std::uint8_t>(wire::kVersion >> 8);
  }
  return wire::decode_snapshot(frame);
}

ParticleSet flatten_snapshot(const domain::wire::SnapshotMsg& snap) {
  ParticleSet out;
  std::size_t total = 0;
  for (const ParticleSet& s : snap.sets) total += s.size();
  out.reserve(total);
  for (const ParticleSet& s : snap.sets) out.append(s);
  return out;
}

ParticleSet read_initial_condition(const std::string& path) {
  ParticleSet parts = flatten_snapshot(read_snapshot_file(path));
  const std::string bad = find_non_finite(parts);
  if (!bad.empty())
    throw std::runtime_error("snapshot: " + path + ": non-finite initial condition: " + bad);
  return parts;
}

}  // namespace bonsai::serve
