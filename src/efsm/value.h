// Typed values, interned argument keys, and variable stores for extended
// finite state machines.
//
// Definition 1 of the paper equips an EFSM with a vector v̄ of state
// variables over domains D, split in §4.2 into local variables (v.l_*, one
// protocol machine) and global variables (v.g_*, shared by all machines of
// a call group — how SDP media parameters reach the RTP machine). A
// VariableStore is one such scope; memory accounting supports the paper's
// §7.3 per-call memory-cost claim.
//
// Argument and variable names are interned once into a process-wide ArgKey
// table, so the per-packet hot path compares 16-bit integers instead of
// hashing strings. EventArgs is a flat array with inline capacity. A
// VariableStore is an array of 24-byte slots laid out from the variables
// its machine definition declares, with strings longer than a slot's
// inline payload in one per-store spill buffer. A call's variables cost
// one slot each, and steady-state packet inspection (and a recycled call
// group's next call) allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vids::efsm {

/// A state-variable or event-argument value.
using Value = std::variant<std::monostate, int64_t, double, std::string, bool>;

/// Readable rendering for traces and alerts.
std::string ToString(const Value& value);

/// An interned identifier for an event-argument or state-variable name.
/// Interning is append-only and process-wide, and thread-safe: ids must
/// agree across the sharded engine's worker threads (a shard's hook events
/// are decoded by the coordinator). Lookup of an already-interned name is
/// lock-free; only the first intern of a new spelling takes a mutex.
/// Equality and lookup on a key are integer operations; `name()` recovers
/// the original spelling.
class ArgKey {
 public:
  /// The default-constructed key is invalid and compares unequal to every
  /// interned key.
  constexpr ArgKey() = default;

  /// Returns the key for `name`, interning it on first use.
  static ArgKey Intern(std::string_view name);

  /// Recovers the spelling of an interned id — the decode side of the
  /// flight recorder's compact records. "<invalid>" for unknown ids.
  static std::string_view NameOfId(uint16_t id);

  std::string_view name() const;
  constexpr uint16_t id() const { return id_; }
  constexpr bool valid() const { return id_ != kInvalidId; }

  friend constexpr bool operator==(ArgKey a, ArgKey b) {
    return a.id_ == b.id_;
  }

 private:
  static constexpr uint16_t kInvalidId = 0xFFFF;
  constexpr explicit ArgKey(uint16_t id) : id_(id) {}
  uint16_t id_ = kInvalidId;
};

/// The event-argument vector x̄: a small flat map keyed by ArgKey. The
/// first kInlineCapacity entries live inline (no heap); larger vectors
/// (SIP's parsed-header events) spill wholesale to a heap vector so
/// iteration stays a single contiguous scan either way. Lookup is a linear
/// integer-compare scan — for the ≤ 20 arguments an event carries that
/// beats any tree or hash by a wide margin.
class EventArgs {
 public:
  struct Entry {
    ArgKey key;
    Value value;
  };
  using const_iterator = const Entry*;

  EventArgs() = default;
  EventArgs(const EventArgs& other);
  EventArgs(EventArgs&& other) noexcept;
  EventArgs& operator=(const EventArgs& other);
  EventArgs& operator=(EventArgs&& other) noexcept;

  /// Returns the value for `key`, inserting a monostate entry if absent.
  Value& operator[](ArgKey key);
  Value& operator[](std::string_view name) {
    return (*this)[ArgKey::Intern(name)];
  }

  /// Positional fast path for writers that fill the same keys in the same
  /// order every time (the packet classifier's reused scratch events): when
  /// `index` already holds `key` — the steady state — this is a single
  /// integer compare; otherwise it falls back to the keyed lookup, so the
  /// result is always identical to operator[](key).
  Value& Slot(size_t index, ArgKey key) {
    if (index < size_) {
      Entry& entry = data()[index];
      if (entry.key == key) return entry.value;
    }
    return (*this)[key];
  }

  /// Returns the entry's value or nullptr. Never allocates.
  const Value* Find(ArgKey key) const;
  const Value* Find(std::string_view name) const {
    return Find(ArgKey::Intern(name));
  }
  bool contains(ArgKey key) const { return Find(key) != nullptr; }
  bool contains(std::string_view name) const { return Find(name) != nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  /// Approximate heap footprint of the argument vector (names are interned
  /// and shared, so only spilled storage and string payloads count).
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kInlineCapacity = 12;

  bool spilled() const { return size_ > kInlineCapacity; }
  const Entry* data() const {
    return spilled() ? heap_.data() : inline_.data();
  }
  Entry* data() { return spilled() ? heap_.data() : inline_.data(); }

  uint32_t size_ = 0;
  std::array<Entry, kInlineCapacity> inline_{};
  std::vector<Entry> heap_;
};

/// One variable scope (local or global) in a compact slot layout: each
/// variable is one 24-byte Slot holding its key, a type tag and an inline
/// payload. Ints, doubles, bools and strings of up to kInlineBytes bytes
/// (every IP, port, codec, Call-ID and most tags) live in the slot itself;
/// a longer string is copied into the store's spill buffer and the slot
/// holds its offset, length and reserved capacity there.
///
/// The slot array is laid out by AddSlots from the variables a MachineDef
/// declares, on the store's first write, so a declared machine's store is
/// allocated once at its exact size and never grows; a key nobody declared
/// still works and appends a slot on its first Set. Clear() unsets every
/// slot and empties the spill buffer but keeps both allocations, so a
/// recycled call group writes its next call's variables without touching
/// the heap. Lookup is a linear scan over 16-bit keys — a scope holds at
/// most a dozen variables.
class VariableStore {
 public:
  /// Strings up to this many bytes are stored inline in their slot.
  static constexpr size_t kInlineBytes = 20;

  /// Lays out an unset slot for every key of `keys` the store does not
  /// hold yet, growing the slot array to exactly its new size.
  void AddSlots(std::span<const ArgKey> keys);
  /// False until the first slot is laid out (or the first Set).
  bool has_slots() const { return !slots_.empty(); }

  /// Stores `value`; storing monostate unsets the variable.
  void Set(ArgKey key, const Value& value);
  void Set(std::string_view name, const Value& value) {
    Set(ArgKey::Intern(name), value);
  }

  /// An owning copy of the variable (monostate when unset). It copies
  /// strings: the packet path reads through the typed getters, Equals and
  /// GetStringView instead.
  Value Get(ArgKey key) const;
  Value Get(std::string_view name) const { return Get(ArgKey::Intern(name)); }
  bool Has(ArgKey key) const;
  bool Has(std::string_view name) const { return Has(ArgKey::Intern(name)); }
  /// The variable compared with `value` under Value equality: same
  /// alternative and equal payload, and an unset variable equals monostate.
  bool Equals(ArgKey key, const Value& value) const;
  void Erase(ArgKey key);
  void Erase(std::string_view name) { Erase(ArgKey::Intern(name)); }
  /// Unsets every variable; the slot layout and spill capacity are kept.
  void Clear();
  /// The number of set variables.
  size_t size() const;

  // Typed readers returning nullopt when absent or of another type.
  std::optional<int64_t> GetInt(ArgKey key) const;
  std::optional<int64_t> GetInt(std::string_view name) const {
    return GetInt(ArgKey::Intern(name));
  }
  std::optional<double> GetDouble(ArgKey key) const;
  std::optional<double> GetDouble(std::string_view name) const {
    return GetDouble(ArgKey::Intern(name));
  }
  std::optional<std::string> GetString(ArgKey key) const;
  std::optional<std::string> GetString(std::string_view name) const {
    return GetString(ArgKey::Intern(name));
  }
  /// Zero-copy string read, valid until the store's next mutation.
  std::optional<std::string_view> GetStringView(ArgKey key) const;
  std::optional<bool> GetBool(ArgKey key) const;
  std::optional<bool> GetBool(std::string_view name) const {
    return GetBool(ArgKey::Intern(name));
  }

  /// Heap footprint (slot array and spill buffer), for the TAB-MEM
  /// experiment. The object itself is counted by whatever embeds it.
  size_t MemoryBytes() const;

 private:
  enum class Tag : uint8_t { kUnset, kInt, kDouble, kBool, kInline, kSpilled };
  struct Slot {
    ArgKey key;
    Tag tag = Tag::kUnset;
    uint8_t inline_size = 0;  // kInline: string length
    // kInt/kDouble/kBool: the value; kInline: the characters; kSpilled: a
    // SpillRef. Accessed through memcpy, so the slot stays 2-byte aligned.
    char payload[kInlineBytes] = {};
  };
  static_assert(sizeof(Slot) == 24, "a variable slot is 24 bytes");
  struct SpillRef {
    uint32_t offset;
    uint32_t size;
    uint32_t capacity;  // bytes reserved at offset; reused by later Sets
  };

  Slot* FindSlot(ArgKey key);
  const Slot* FindSlot(ArgKey key) const;
  const Slot* FindSet(ArgKey key) const;
  std::string_view StringOf(const Slot& slot) const;
  void SetString(Slot& slot, std::string_view text);
  /// Copies `text` to the end of the spill buffer, first compacting away
  /// the regions of overwritten and erased strings when the buffer would
  /// otherwise have to grow.
  SpillRef AppendSpill(std::string_view text);

  std::vector<Slot> slots_;
  std::vector<char> spill_;
};

}  // namespace vids::efsm
