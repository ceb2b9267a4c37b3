#include "efsm/value.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace vids::efsm {

namespace {

// Append-only intern pool, shared by every engine in the process (ArgKey
// ids cross thread boundaries: a shard worker's hook events are decoded by
// the sharded coordinator). Readers are lock-free: lookup probes an
// open-addressing table of entry pointers published with release stores,
// so the single-threaded per-packet path pays no lock. Writers (first
// intern of a new name — cold, names are static spellings in code)
// serialize on a mutex. A deque keeps entry addresses stable; slots are
// never emptied, so a reader that hits nullptr has seen every entry
// published before its probe began and falls through to the write path.
// Meyers singleton: safe to intern from static initializers of other
// translation units.
constexpr size_t kMaxKeys = 4096;
constexpr size_t kTableSize = 8192;  // power of two, 2x keys keeps probes short

struct InternEntry {
  std::string name;
  uint16_t id;
};

struct ArgKeyPool {
  std::atomic<InternEntry*> slots[kTableSize] = {};
  std::atomic<InternEntry*> by_id[kMaxKeys] = {};
  std::mutex write_mu;
  std::deque<InternEntry> storage;  // guarded by write_mu
};

ArgKeyPool& Pool() {
  static ArgKeyPool pool;
  return pool;
}

size_t ProbeStart(std::string_view name) {
  return std::hash<std::string_view>{}(name) & (kTableSize - 1);
}

InternEntry* FindPublished(ArgKeyPool& pool, std::string_view name,
                           size_t& probe) {
  probe = ProbeStart(name);
  for (;;) {
    InternEntry* entry = pool.slots[probe].load(std::memory_order_acquire);
    if (entry == nullptr) return nullptr;
    if (entry->name == name) return entry;
    probe = (probe + 1) & (kTableSize - 1);
  }
}

}  // namespace

ArgKey ArgKey::Intern(std::string_view name) {
  ArgKeyPool& pool = Pool();
  size_t probe = 0;
  if (const InternEntry* entry = FindPublished(pool, name, probe)) {
    return ArgKey(entry->id);
  }
  std::lock_guard<std::mutex> lock(pool.write_mu);
  // Re-probe under the lock: another thread may have interned `name`
  // between the lock-free miss and lock acquisition.
  if (const InternEntry* entry = FindPublished(pool, name, probe)) {
    return ArgKey(entry->id);
  }
  if (pool.storage.size() >= kMaxKeys) {
    throw std::length_error("ArgKey: intern pool exhausted");
  }
  const auto id = static_cast<uint16_t>(pool.storage.size());
  InternEntry& stored = pool.storage.emplace_back(
      InternEntry{std::string(name), id});
  pool.by_id[id].store(&stored, std::memory_order_release);
  pool.slots[probe].store(&stored, std::memory_order_release);
  return ArgKey(id);
}

std::string_view ArgKey::name() const {
  if (!valid()) return "<invalid>";
  return NameOfId(id_);
}

std::string_view ArgKey::NameOfId(uint16_t id) {
  if (id >= kMaxKeys) return "<invalid>";
  const InternEntry* entry = Pool().by_id[id].load(std::memory_order_acquire);
  return entry ? std::string_view(entry->name) : "<invalid>";
}

std::string ToString(const Value& value) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "<unset>"; }
    std::string operator()(int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const { return std::to_string(v); }
    std::string operator()(const std::string& v) const { return v; }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
  };
  return std::visit(Visitor{}, value);
}

// ------------------------------------------------------------ EventArgs

EventArgs::EventArgs(const EventArgs& other) : size_(other.size_) {
  if (other.spilled()) {
    heap_ = other.heap_;
  } else {
    for (uint32_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
  }
}

EventArgs::EventArgs(EventArgs&& other) noexcept : size_(other.size_) {
  if (other.spilled()) {
    heap_ = std::move(other.heap_);
  } else {
    for (uint32_t i = 0; i < size_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
  }
  other.size_ = 0;
  other.heap_.clear();
}

EventArgs& EventArgs::operator=(const EventArgs& other) {
  if (this == &other) return *this;
  clear();
  size_ = other.size_;
  if (other.spilled()) {
    heap_ = other.heap_;
  } else {
    for (uint32_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
  }
  return *this;
}

EventArgs& EventArgs::operator=(EventArgs&& other) noexcept {
  if (this == &other) return *this;
  clear();
  size_ = other.size_;
  if (other.spilled()) {
    heap_ = std::move(other.heap_);
  } else {
    for (uint32_t i = 0; i < size_; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
  }
  other.size_ = 0;
  other.heap_.clear();
  return *this;
}

Value& EventArgs::operator[](ArgKey key) {
  Entry* entries = data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (entries[i].key == key) return entries[i].value;
  }
  if (size_ < kInlineCapacity) {
    inline_[size_].key = key;
    inline_[size_].value = std::monostate{};
    return inline_[size_++].value;
  }
  if (size_ == kInlineCapacity) {
    // Spill: move everything so iteration stays one contiguous scan.
    heap_.reserve(kInlineCapacity * 2);
    for (Entry& entry : inline_) heap_.push_back(std::move(entry));
  }
  heap_.push_back(Entry{key, std::monostate{}});
  ++size_;
  return heap_.back().value;
}

const Value* EventArgs::Find(ArgKey key) const {
  const Entry* entries = data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (entries[i].key == key) return &entries[i].value;
  }
  return nullptr;
}

void EventArgs::clear() {
  if (!spilled()) {
    for (uint32_t i = 0; i < size_; ++i) inline_[i].value = std::monostate{};
  }
  heap_.clear();
  size_ = 0;
}

size_t EventArgs::MemoryBytes() const {
  size_t bytes = heap_.capacity() * sizeof(Entry);
  for (const Entry& entry : *this) {
    if (const auto* s = std::get_if<std::string>(&entry.value)) {
      bytes += s->capacity();
    }
  }
  return bytes;
}

// -------------------------------------------------------- VariableStore

namespace {

template <typename T>
T LoadPayload(const char* payload) {
  T value;
  std::memcpy(&value, payload, sizeof(T));
  return value;
}

template <typename T>
void StorePayload(char* payload, const T& value) {
  std::memcpy(payload, &value, sizeof(T));
}

}  // namespace

void VariableStore::AddSlots(std::span<const ArgKey> keys) {
  size_t added = 0;
  for (const ArgKey key : keys) {
    if (FindSlot(key) == nullptr) ++added;
  }
  if (added == 0) return;
  slots_.reserve(slots_.size() + added);
  for (const ArgKey key : keys) {
    if (FindSlot(key) == nullptr) slots_.push_back(Slot{key});
  }
}

const VariableStore::Slot* VariableStore::FindSlot(ArgKey key) const {
  for (const Slot& slot : slots_) {
    if (slot.key == key) return &slot;
  }
  return nullptr;
}

VariableStore::Slot* VariableStore::FindSlot(ArgKey key) {
  return const_cast<Slot*>(std::as_const(*this).FindSlot(key));
}

const VariableStore::Slot* VariableStore::FindSet(ArgKey key) const {
  const Slot* slot = FindSlot(key);
  return slot != nullptr && slot->tag != Tag::kUnset ? slot : nullptr;
}

std::string_view VariableStore::StringOf(const Slot& slot) const {
  if (slot.tag == Tag::kInline) return {slot.payload, slot.inline_size};
  const auto ref = LoadPayload<SpillRef>(slot.payload);
  return {spill_.data() + ref.offset, ref.size};
}

void VariableStore::Set(ArgKey key, const Value& value) {
  Slot* slot = FindSlot(key);
  if (slot == nullptr) {
    if (std::holds_alternative<std::monostate>(value)) return;
    slot = &slots_.emplace_back(Slot{key});
  }
  if (const auto* text = std::get_if<std::string>(&value)) {
    SetString(*slot, *text);
    return;
  }
  if (const auto* i = std::get_if<int64_t>(&value)) {
    slot->tag = Tag::kInt;
    StorePayload(slot->payload, *i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    slot->tag = Tag::kDouble;
    StorePayload(slot->payload, *d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    slot->tag = Tag::kBool;
    StorePayload(slot->payload, *b);
  } else {
    slot->tag = Tag::kUnset;
  }
}

void VariableStore::SetString(Slot& slot, std::string_view text) {
  if (text.size() <= kInlineBytes) {
    slot.tag = Tag::kInline;
    slot.inline_size = static_cast<uint8_t>(text.size());
    std::memcpy(slot.payload, text.data(), text.size());
    return;
  }
  if (slot.tag == Tag::kSpilled) {
    auto ref = LoadPayload<SpillRef>(slot.payload);
    if (text.size() <= ref.capacity) {  // overwrite in place
      std::memcpy(spill_.data() + ref.offset, text.data(), text.size());
      ref.size = static_cast<uint32_t>(text.size());
      StorePayload(slot.payload, ref);
      return;
    }
    slot.tag = Tag::kUnset;  // its old region is garbage from here on
  }
  const SpillRef ref = AppendSpill(text);
  slot.tag = Tag::kSpilled;
  StorePayload(slot.payload, ref);
}

VariableStore::SpillRef VariableStore::AppendSpill(std::string_view text) {
  if (spill_.size() + text.size() > spill_.capacity()) {
    // Rebuild the buffer from the strings still referenced, then grow it to
    // a 32-byte multiple: a recycled group's next call, whose strings are a
    // byte or two longer, still fits without reallocating.
    size_t live = 0;
    for (const Slot& slot : slots_) {
      if (slot.tag == Tag::kSpilled) {
        live += LoadPayload<SpillRef>(slot.payload).capacity;
      }
    }
    std::vector<char> packed;
    packed.reserve(std::max(spill_.capacity(),
                            (live + text.size() + 31) & ~size_t{31}));
    for (Slot& slot : slots_) {
      if (slot.tag != Tag::kSpilled) continue;
      auto ref = LoadPayload<SpillRef>(slot.payload);
      const char* from = spill_.data() + ref.offset;
      ref.offset = static_cast<uint32_t>(packed.size());
      packed.insert(packed.end(), from, from + ref.capacity);
      StorePayload(slot.payload, ref);
    }
    spill_.swap(packed);
  }
  const SpillRef ref{static_cast<uint32_t>(spill_.size()),
                     static_cast<uint32_t>(text.size()),
                     static_cast<uint32_t>(text.size())};
  spill_.insert(spill_.end(), text.begin(), text.end());
  return ref;
}

Value VariableStore::Get(ArgKey key) const {
  const Slot* slot = FindSet(key);
  if (slot == nullptr) return Value{};
  switch (slot->tag) {
    case Tag::kInt:
      return LoadPayload<int64_t>(slot->payload);
    case Tag::kDouble:
      return LoadPayload<double>(slot->payload);
    case Tag::kBool:
      return LoadPayload<bool>(slot->payload);
    case Tag::kInline:
    case Tag::kSpilled:
      return std::string(StringOf(*slot));
    case Tag::kUnset:
      break;
  }
  return Value{};
}

bool VariableStore::Has(ArgKey key) const { return FindSet(key) != nullptr; }

bool VariableStore::Equals(ArgKey key, const Value& value) const {
  const Slot* slot = FindSet(key);
  if (slot == nullptr) return std::holds_alternative<std::monostate>(value);
  switch (slot->tag) {
    case Tag::kInt: {
      const auto* i = std::get_if<int64_t>(&value);
      return i != nullptr && *i == LoadPayload<int64_t>(slot->payload);
    }
    case Tag::kDouble: {
      const auto* d = std::get_if<double>(&value);
      return d != nullptr && *d == LoadPayload<double>(slot->payload);
    }
    case Tag::kBool: {
      const auto* b = std::get_if<bool>(&value);
      return b != nullptr && *b == LoadPayload<bool>(slot->payload);
    }
    case Tag::kInline:
    case Tag::kSpilled: {
      const auto* text = std::get_if<std::string>(&value);
      return text != nullptr && *text == StringOf(*slot);
    }
    case Tag::kUnset:
      break;
  }
  return false;
}

void VariableStore::Erase(ArgKey key) {
  if (Slot* slot = FindSlot(key)) slot->tag = Tag::kUnset;
}

void VariableStore::Clear() {
  for (Slot& slot : slots_) slot.tag = Tag::kUnset;
  spill_.clear();
}

size_t VariableStore::size() const {
  return static_cast<size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& slot) { return slot.tag != Tag::kUnset; }));
}

std::optional<int64_t> VariableStore::GetInt(ArgKey key) const {
  const Slot* slot = FindSet(key);
  if (slot == nullptr || slot->tag != Tag::kInt) return std::nullopt;
  return LoadPayload<int64_t>(slot->payload);
}

std::optional<double> VariableStore::GetDouble(ArgKey key) const {
  const Slot* slot = FindSet(key);
  if (slot == nullptr || slot->tag != Tag::kDouble) return std::nullopt;
  return LoadPayload<double>(slot->payload);
}

std::optional<std::string> VariableStore::GetString(ArgKey key) const {
  const auto view = GetStringView(key);
  return view ? std::optional<std::string>(std::string(*view)) : std::nullopt;
}

std::optional<std::string_view> VariableStore::GetStringView(
    ArgKey key) const {
  const Slot* slot = FindSet(key);
  if (slot == nullptr ||
      (slot->tag != Tag::kInline && slot->tag != Tag::kSpilled)) {
    return std::nullopt;
  }
  return StringOf(*slot);
}

std::optional<bool> VariableStore::GetBool(ArgKey key) const {
  const Slot* slot = FindSet(key);
  if (slot == nullptr || slot->tag != Tag::kBool) return std::nullopt;
  return LoadPayload<bool>(slot->payload);
}

size_t VariableStore::MemoryBytes() const {
  return slots_.capacity() * sizeof(Slot) + spill_.capacity();
}

}  // namespace vids::efsm
