#include "cal/symbol.hpp"

#include <array>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace cal {
namespace {

struct Interner {
  std::mutex mu;
  // Stable storage for spellings; index i holds the spelling of symbol id
  // i + 1 (id 0 is the null symbol). A spelling is never moved or freed.
  std::deque<std::string> spellings;
  std::unordered_map<std::string_view, std::uint32_t> ids;
  std::string empty;
};

Interner& interner() {
  static Interner* table = new Interner();  // intentionally leaked singleton
  return *table;
}

/// A small direct-mapped per-thread cache in front of the interner: slot
/// h(name) remembers the last (spelling, id) interned through it. Because
/// spellings never move or die, a hit is decided by comparing `name` with
/// the remembered spelling — no lock, no shared write. Parsers, builders
/// and the streaming front end meet the same few names over and over.
struct FrontCache {
  struct Entry {
    const std::string* spelling = nullptr;
    std::uint32_t id = 0;
  };
  static constexpr std::size_t kSlots = 64;
  std::array<Entry, kSlots> entries;

  static std::size_t slot_of(std::string_view name) noexcept {
    std::uint32_t h = 2166136261u;  // FNV-1a
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 16777619u;
    }
    return (h ^ (h >> 16)) % kSlots;
  }
};

thread_local FrontCache front_cache;

}  // namespace

Symbol::Symbol(std::string_view name) {
  FrontCache::Entry& cached = front_cache.entries[FrontCache::slot_of(name)];
  if (cached.spelling != nullptr && *cached.spelling == name) {
    id_ = cached.id;
    return;
  }
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  if (auto it = t.ids.find(name); it != t.ids.end()) {
    id_ = it->second;
  } else {
    t.spellings.emplace_back(name);
    id_ = static_cast<std::uint32_t>(t.spellings.size());
    t.ids.emplace(t.spellings.back(), id_);
  }
  cached = FrontCache::Entry{&t.spellings[id_ - 1], id_};
}

const std::string& Symbol::str() const {
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  if (id_ == 0) return t.empty;
  return t.spellings[id_ - 1];
}

}  // namespace cal
