#include "serve/snapshot.hpp"

#include <fstream>
#include <stdexcept>
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
  return domain::wire::decode_snapshot(frame);
}

ParticleSet flatten_snapshot(const domain::wire::SnapshotMsg& snap) {
  ParticleSet out;
  std::size_t total = 0;
  for (const ParticleSet& s : snap.sets) total += s.size();
  out.reserve(total);
  for (const ParticleSet& s : snap.sets) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      out.add(s.get(i));
      out.ax.back() = s.ax[i];
      out.ay.back() = s.ay[i];
      out.az.back() = s.az[i];
      out.pot.back() = s.pot[i];
      out.key.back() = s.key[i];
    }
  }
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
