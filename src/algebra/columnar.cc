#include "src/algebra/columnar.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace svx {

namespace {

// ---------------------------------------------------------------------------
// Varint + raw-cell byte primitives. The raw-cell layout mirrors the v1
// row-major cell encoding (extent_io.cc) so type-mixed columns keep exactly
// the old fidelity; everything else uses LEB128 varints.
// ---------------------------------------------------------------------------

enum CellTag : uint8_t {
  kCellNull = 0,
  kCellString = 1,
  kCellId = 2,
  kCellContent = 3,
  kCellNested = 4,
};

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

int64_t VarintSize(uint64_t v) {
  int64_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}

/// Bounds-checked reader over serialized chunk payloads.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, size_t pos) : bytes_(bytes), pos_(pos) {}

  bool GetVarint(uint64_t* v) {
    *v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= bytes_.size() || shift > 63) return false;
      uint8_t b = static_cast<uint8_t>(bytes_[pos_++]);
      *v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return true;
      shift += 7;
    }
  }
  bool GetU8(uint8_t* v) {
    if (pos_ >= bytes_.size()) return false;
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool GetBytes(size_t n, std::string* out) {
    if (n > Remaining()) return false;
    out->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  size_t pos() const { return pos_; }
  size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Truncated(const ByteReader& r) {
  return Status::ParseError(
      StrFormat("truncated columnar extent at offset %zu", r.pos()));
}

// Raw cells use the v1 fixed-width framing (u32 lengths / components, u64
// nested row counts) so the fallback stays byte-compatible in spirit with
// the row-major format it replaces.
void PutU32Raw(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64Raw(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutOrdPathRaw(const OrdPath& id, std::string* out) {
  PutU32Raw(static_cast<uint32_t>(id.components().size()), out);
  for (int32_t c : id.components()) {
    PutU32Raw(static_cast<uint32_t>(c), out);
  }
}

void PutRawCell(const Value& v, std::string* out) {
  if (v.IsNull()) {
    out->push_back(static_cast<char>(kCellNull));
  } else if (v.IsString()) {
    out->push_back(static_cast<char>(kCellString));
    PutU32Raw(static_cast<uint32_t>(v.AsString().size()), out);
    out->append(v.AsString());
  } else if (v.IsId()) {
    out->push_back(static_cast<char>(kCellId));
    PutOrdPathRaw(v.AsId(), out);
  } else if (v.IsContent()) {
    const NodeRef& ref = v.AsContent();
    SVX_CHECK(ref.doc != nullptr && ref.node != kInvalidNode);
    out->push_back(static_cast<char>(kCellContent));
    PutOrdPathRaw(ref.doc->ord_path(ref.node), out);
  } else {
    const Table& nested = v.AsTable();
    out->push_back(static_cast<char>(kCellNested));
    PutU64Raw(static_cast<uint64_t>(nested.NumRows()), out);
    for (const Tuple& row : nested.rows()) {
      for (const Value& cell : row) PutRawCell(cell, out);
    }
  }
}

class RawCellReader {
 public:
  explicit RawCellReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (pos_ >= bytes_.size()) return false;
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len) || pos_ + len > bytes_.size()) return false;
    s->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool GetOrdPath(OrdPath* id) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > 1u << 20 || pos_ + 4ull * n > bytes_.size()) {
      return false;
    }
    std::vector<int32_t> comps;
    comps.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t c = 0;
      if (!GetU32(&c)) return false;
      comps.push_back(static_cast<int32_t>(c));
    }
    *id = OrdPath(std::move(comps));
    return true;
  }
  size_t pos() const { return pos_; }
  size_t Remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status RawTruncated(const RawCellReader& r) {
  return Status::ParseError(
      StrFormat("truncated raw column chunk at offset %zu", r.pos()));
}

Result<Value> GetRawCell(RawCellReader* r, const ColumnSpec& col,
                         const Document* doc, int depth) {
  if (depth > 16) return Status::ParseError("raw cell nesting too deep");
  uint8_t tag = 0;
  if (!r->GetU8(&tag)) return RawTruncated(*r);
  switch (tag) {
    case kCellNull:
      return Value();
    case kCellString: {
      std::string s;
      if (!r->GetString(&s)) return RawTruncated(*r);
      return Value(std::move(s));
    }
    case kCellId: {
      OrdPath id;
      if (!r->GetOrdPath(&id)) return RawTruncated(*r);
      return Value(std::move(id));
    }
    case kCellContent: {
      OrdPath id;
      if (!r->GetOrdPath(&id)) return RawTruncated(*r);
      if (doc == nullptr) {
        return Status::InvalidArgument(
            "extent has content references but no document was supplied");
      }
      NodeIndex node = doc->FindByOrdPath(id);
      if (node == kInvalidNode) {
        return Status::NotFound(
            "content reference " + id.ToString() + " not in the document");
      }
      return Value(NodeRef{doc, node});
    }
    case kCellNested: {
      if (col.nested == nullptr) {
        return Status::ParseError("nested cell in a non-nested column");
      }
      uint64_t nrows = 0;
      if (!r->GetU64(&nrows)) return RawTruncated(*r);
      const Schema& schema = *col.nested;
      if (nrows > 0 &&
          (schema.size() == 0 ||
           nrows > r->Remaining() / static_cast<uint64_t>(schema.size()))) {
        return Status::ParseError(
            StrFormat("nested row count %llu exceeds input size",
                      static_cast<unsigned long long>(nrows)));
      }
      Table table(schema);
      for (uint64_t i = 0; i < nrows; ++i) {
        Tuple row;
        row.reserve(static_cast<size_t>(schema.size()));
        for (int32_t c = 0; c < schema.size(); ++c) {
          Result<Value> v = GetRawCell(r, schema.column(c), doc, depth + 1);
          if (!v.ok()) return v.status();
          row.push_back(std::move(*v));
        }
        table.AddRow(std::move(row));
      }
      return Value(std::make_shared<const Table>(std::move(table)));
    }
    default:
      return Status::ParseError(
          StrFormat("bad raw cell tag %u", static_cast<unsigned>(tag)));
  }
}

/// Walks every content ORDPATH inside a raw cell stream without resolving
/// the references.
Status WalkRawContentIds(RawCellReader* r, const ColumnSpec& col, int depth,
                         const std::function<Status(const OrdPath&)>& fn) {
  if (depth > 16) return Status::ParseError("raw cell nesting too deep");
  uint8_t tag = 0;
  if (!r->GetU8(&tag)) return RawTruncated(*r);
  switch (tag) {
    case kCellNull:
      return Status::OK();
    case kCellString: {
      std::string s;
      if (!r->GetString(&s)) return RawTruncated(*r);
      return Status::OK();
    }
    case kCellId: {
      OrdPath id;
      if (!r->GetOrdPath(&id)) return RawTruncated(*r);
      return Status::OK();
    }
    case kCellContent: {
      OrdPath id;
      if (!r->GetOrdPath(&id)) return RawTruncated(*r);
      return fn(id);
    }
    case kCellNested: {
      if (col.nested == nullptr) {
        return Status::ParseError("nested cell in a non-nested column");
      }
      uint64_t nrows = 0;
      if (!r->GetU64(&nrows)) return RawTruncated(*r);
      const Schema& schema = *col.nested;
      if (nrows > 0 &&
          (schema.size() == 0 ||
           nrows > r->Remaining() / static_cast<uint64_t>(schema.size()))) {
        return Status::ParseError("nested row count exceeds input size");
      }
      for (uint64_t i = 0; i < nrows; ++i) {
        for (int32_t c = 0; c < schema.size(); ++c) {
          SVX_RETURN_IF_ERROR(
              WalkRawContentIds(r, schema.column(c), depth + 1, fn));
        }
      }
      return Status::OK();
    }
    default:
      return Status::ParseError("bad raw cell tag");
  }
}

// ---------------------------------------------------------------------------
// Per-column encoding.
// ---------------------------------------------------------------------------

const OrdPath& CellOrdPath(const Value& v) {
  if (v.IsId()) return v.AsId();
  const NodeRef& ref = v.AsContent();
  SVX_CHECK(ref.doc != nullptr && ref.node != kInvalidNode);
  return ref.doc->ord_path(ref.node);
}

void AppendDeltaComps(const std::vector<int32_t>& comps,
                      std::vector<int32_t>* prev, std::string* out) {
  size_t prefix = 0;
  size_t limit = std::min(prev->size(), comps.size());
  while (prefix < limit && (*prev)[prefix] == comps[prefix]) ++prefix;
  PutVarint(static_cast<uint64_t>(prefix) + 1, out);
  PutVarint(static_cast<uint64_t>(comps.size() - prefix), out);
  for (size_t i = prefix; i < comps.size(); ++i) {
    PutVarint(static_cast<uint64_t>(static_cast<uint32_t>(comps[i])), out);
  }
  *prev = comps;
}

/// Value-type bits of a column's non-null cells. The encoding of a column
/// is a function of their union alone (EncodingFor), which is what lets a
/// fold tell whether the folded column keeps its encoding.
enum TypeBit : uint8_t {
  kTypeString = 1,
  kTypeId = 2,
  kTypeContent = 4,
  kTypeNested = 8,  // a table of the column's nested schema
  kTypeOther = 16,  // any other table
};

uint8_t CellTypeBit(const Value& v, const ColumnSpec& spec) {
  if (v.IsNull()) return 0;
  if (v.IsString()) return kTypeString;
  if (v.IsId()) return kTypeId;
  if (v.IsContent()) return kTypeContent;
  return spec.nested != nullptr && v.AsTable().schema() == *spec.nested
             ? kTypeNested
             : kTypeOther;
}

ColumnChunk::Encoding EncodingFor(uint8_t types) {
  if ((types & ~kTypeString) == 0) return ColumnChunk::kDict;
  if ((types & ~kTypeId) == 0) return ColumnChunk::kIds;
  if ((types & ~kTypeContent) == 0) return ColumnChunk::kContent;
  if ((types & ~kTypeNested) == 0) return ColumnChunk::kNested;
  return ColumnChunk::kRaw;
}

/// The one type a non-raw chunk's non-null cells have.
uint8_t EncodingTypeBit(ColumnChunk::Encoding encoding) {
  switch (encoding) {
    case ColumnChunk::kDict:
      return kTypeString;
    case ColumnChunk::kIds:
      return kTypeId;
    case ColumnChunk::kContent:
      return kTypeContent;
    case ColumnChunk::kNested:
      return kTypeNested;
    case ColumnChunk::kRaw:
      break;
  }
  return 0;
}

/// Encodes the `n` cells `cell(0..n-1)` of one column; the encoding follows
/// the non-null cells' types (EncodingFor).
template <typename CellAt>
ColumnChunkPtr EncodeCells(int64_t n, const CellAt& cell,
                           const ColumnSpec& spec) {
  auto chunk = std::make_shared<ColumnChunk>();
  chunk->num_rows = n;
  uint8_t types = 0;
  for (int64_t i = 0; i < n; ++i) types |= CellTypeBit(cell(i), spec);
  chunk->encoding = EncodingFor(types);

  if (chunk->encoding == ColumnChunk::kDict) {
    std::vector<std::string> values;
    for (int64_t i = 0; i < n; ++i) {
      const Value& v = cell(i);
      if (!v.IsNull()) values.push_back(v.AsString());
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::unordered_map<std::string_view, uint32_t> index;
    index.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      index.emplace(values[i], static_cast<uint32_t>(i));
    }
    chunk->dict = std::move(values);
    chunk->codes.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const Value& v = cell(i);
      chunk->codes.push_back(v.IsNull() ? ColumnChunk::kNullCode
                                        : index.at(v.AsString()));
    }
    return chunk;
  }

  if (chunk->encoding == ColumnChunk::kIds ||
      chunk->encoding == ColumnChunk::kContent) {
    std::vector<int32_t> prev;
    for (int64_t i = 0; i < n; ++i) {
      const Value& v = cell(i);
      if (v.IsNull()) {
        PutVarint(0, &chunk->id_bytes);
      } else {
        AppendDeltaComps(CellOrdPath(v).components(), &prev,
                         &chunk->id_bytes);
      }
    }
    return chunk;
  }

  if (chunk->encoding == ColumnChunk::kNested) {
    Table concat(*spec.nested);
    chunk->offsets.reserve(static_cast<size_t>(n) + 1);
    chunk->nulls.reserve(static_cast<size_t>(n));
    chunk->offsets.push_back(0);
    for (int64_t i = 0; i < n; ++i) {
      const Value& v = cell(i);
      if (v.IsNull()) {
        chunk->nulls.push_back(1);
      } else {
        chunk->nulls.push_back(0);
        for (const Tuple& inner : v.AsTable().rows()) {
          concat.AddRow(inner);
        }
      }
      chunk->offsets.push_back(concat.NumRows());
    }
    chunk->child = std::make_shared<const ColumnarExtent>(
        ColumnarExtent::Encode(concat));
    return chunk;
  }

  for (int64_t i = 0; i < n; ++i) PutRawCell(cell(i), &chunk->raw_cells);
  return chunk;
}

ColumnChunkPtr EncodeColumn(const Table& table, int32_t c,
                            const ColumnSpec& spec) {
  return EncodeCells(
      table.NumRows(),
      [&](int64_t i) -> const Value& {
        return table.row(i)[static_cast<size_t>(c)];
      },
      spec);
}

bool ChunkHasContent(const ColumnChunk& chunk, const ColumnSpec& spec) {
  switch (chunk.encoding) {
    case ColumnChunk::kContent:
      return !chunk.id_bytes.empty();
    case ColumnChunk::kNested:
      return chunk.child != nullptr && chunk.child->has_content();
    case ColumnChunk::kRaw: {
      bool found = false;
      RawCellReader r(chunk.raw_cells);
      for (int64_t i = 0; i < chunk.num_rows && !found; ++i) {
        Status s = WalkRawContentIds(
            &r, spec, 0, [&found](const OrdPath&) {
              found = true;
              return Status::OK();
            });
        if (!s.ok()) return false;  // corrupt chunks fail later, at decode
      }
      return found;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Per-column decoding.
// ---------------------------------------------------------------------------

/// Sequential reader over a delta-coded ORDPATH chunk. It keeps the last
/// non-null row's components: the base the next row's shared prefix refers
/// to, and the decoded id of the row just read.
class IdRowReader {
 public:
  explicit IdRowReader(std::string_view bytes) : r_(bytes, 0) {}

  /// Reads one row; `*null` tells whether it was ⊥ (last() is unchanged
  /// then). A non-OK status means corrupt bytes.
  Status Next(bool* null) {
    uint64_t head = 0;
    if (!r_.GetVarint(&head)) return Truncated(r_);
    *null = head == 0;
    if (*null) return Status::OK();
    uint64_t prefix = head - 1;
    uint64_t suffix = 0;
    if (!r_.GetVarint(&suffix)) return Truncated(r_);
    if (prefix > last_.size() || prefix + suffix > 1u << 20) {
      return Status::ParseError("bad ORDPATH delta in column chunk");
    }
    last_.resize(static_cast<size_t>(prefix));
    for (uint64_t k = 0; k < suffix; ++k) {
      uint64_t comp = 0;
      if (!r_.GetVarint(&comp)) return Truncated(r_);
      last_.push_back(static_cast<int32_t>(static_cast<uint32_t>(comp)));
    }
    return Status::OK();
  }

  const std::vector<int32_t>& last() const { return last_; }
  size_t pos() const { return r_.pos(); }
  size_t Remaining() const { return r_.Remaining(); }

 private:
  ByteReader r_;
  std::vector<int32_t> last_;
};

Status DecodeIdColumn(const ColumnChunk& chunk, const Document* doc,
                      std::vector<Value>* out) {
  const bool content = chunk.encoding == ColumnChunk::kContent;
  IdRowReader r(chunk.id_bytes);
  out->reserve(static_cast<size_t>(chunk.num_rows));
  for (int64_t i = 0; i < chunk.num_rows; ++i) {
    bool null = false;
    SVX_RETURN_IF_ERROR(r.Next(&null));
    if (null) {
      out->push_back(Value());
      continue;
    }
    OrdPath id(r.last());
    if (!content) {
      out->push_back(Value(std::move(id)));
      continue;
    }
    if (doc == nullptr) {
      return Status::InvalidArgument(
          "extent has content references but no document was supplied");
    }
    NodeIndex node = doc->FindByOrdPath(id);
    if (node == kInvalidNode) {
      return Status::NotFound("content reference " + id.ToString() +
                              " not in the document");
    }
    out->push_back(Value(NodeRef{doc, node}));
  }
  if (r.Remaining() != 0) {
    return Status::ParseError("trailing bytes in ORDPATH column chunk");
  }
  return Status::OK();
}

Status DecodeColumnValues(const ColumnChunk& chunk, const ColumnSpec& spec,
                          const Document* doc, std::vector<Value>* out) {
  switch (chunk.encoding) {
    case ColumnChunk::kDict: {
      if (chunk.codes.size() != static_cast<size_t>(chunk.num_rows)) {
        return Status::ParseError("dictionary code count mismatch");
      }
      out->reserve(chunk.codes.size());
      for (uint32_t code : chunk.codes) {
        if (code == ColumnChunk::kNullCode) {
          out->push_back(Value());
        } else if (code < chunk.dict.size()) {
          out->push_back(Value(chunk.dict[code]));
        } else {
          return Status::ParseError(
              StrFormat("dictionary code out of range in column %s",
                        spec.name.c_str()));
        }
      }
      return Status::OK();
    }
    case ColumnChunk::kIds:
    case ColumnChunk::kContent:
      return DecodeIdColumn(chunk, doc, out);
    case ColumnChunk::kNested: {
      if (chunk.child == nullptr || spec.nested == nullptr ||
          chunk.offsets.size() != static_cast<size_t>(chunk.num_rows) + 1 ||
          chunk.nulls.size() != static_cast<size_t>(chunk.num_rows)) {
        return Status::ParseError("malformed nested column chunk");
      }
      Result<Table> child = chunk.child->Decode(doc);
      if (!child.ok()) return child.status();
      out->reserve(static_cast<size_t>(chunk.num_rows));
      for (int64_t i = 0; i < chunk.num_rows; ++i) {
        if (chunk.nulls[static_cast<size_t>(i)] != 0) {
          out->push_back(Value());
          continue;
        }
        int64_t lo = chunk.offsets[static_cast<size_t>(i)];
        int64_t hi = chunk.offsets[static_cast<size_t>(i) + 1];
        if (lo < 0 || hi < lo || hi > child->NumRows()) {
          return Status::ParseError("nested column offsets out of range");
        }
        Table group(*spec.nested);
        for (int64_t k = lo; k < hi; ++k) {
          group.AddRow(child->row(k));
        }
        out->push_back(Value(std::make_shared<const Table>(std::move(group))));
      }
      return Status::OK();
    }
    case ColumnChunk::kRaw: {
      RawCellReader r(chunk.raw_cells);
      out->reserve(static_cast<size_t>(chunk.num_rows));
      for (int64_t i = 0; i < chunk.num_rows; ++i) {
        Result<Value> v = GetRawCell(&r, spec, doc, 0);
        if (!v.ok()) return v.status();
        out->push_back(std::move(*v));
      }
      if (!r.AtEnd()) {
        return Status::ParseError("trailing bytes in raw column chunk");
      }
      return Status::OK();
    }
  }
  return Status::ParseError("bad column chunk encoding");
}

// ---------------------------------------------------------------------------
// Folding: splicing a row delta into existing chunks.
// ---------------------------------------------------------------------------

/// The folded extent's row layout: alternating runs of surviving prev rows
/// and inserted rows, in output order.
struct SplicePlan {
  struct Run {
    bool inserted = false;
    int64_t lo = 0;  // prev rows [lo, hi), or inserts [lo, hi)
    int64_t hi = 0;
  };
  std::vector<Run> runs;
  int64_t out_rows = 0;
};

Result<SplicePlan> PlanSplice(int64_t n, const std::vector<int64_t>& deleted,
                              const std::vector<FoldInsert>& inserts) {
  for (size_t i = 0; i < deleted.size(); ++i) {
    if (deleted[i] < 0 || deleted[i] >= n ||
        (i > 0 && deleted[i] <= deleted[i - 1])) {
      return Status::InvalidArgument(
          "fold: deleted rows must be strictly ascending row indices");
    }
  }
  SplicePlan plan;
  plan.out_rows = n - static_cast<int64_t>(deleted.size()) +
                  static_cast<int64_t>(inserts.size());
  for (size_t i = 0; i < inserts.size(); ++i) {
    if (inserts[i].row == nullptr || inserts[i].position < 0 ||
        inserts[i].position >= plan.out_rows ||
        (i > 0 && inserts[i].position <= inserts[i - 1].position)) {
      return Status::InvalidArgument(
          "fold: insert positions must be strictly ascending output rows");
    }
  }
  int64_t r = 0;    // next prev row
  size_t d = 0;     // next deleted row
  size_t k = 0;     // next insert
  int64_t out = 0;  // next output row
  while (out < plan.out_rows) {
    if (k < inserts.size() && inserts[k].position == out) {
      const int64_t lo = static_cast<int64_t>(k);
      while (k < inserts.size() && inserts[k].position == out) {
        ++k;
        ++out;
      }
      plan.runs.push_back({true, lo, static_cast<int64_t>(k)});
      continue;
    }
    while (d < deleted.size() && deleted[d] == r) {
      ++d;
      ++r;
    }
    int64_t len = n - r;
    if (d < deleted.size()) len = std::min(len, deleted[d] - r);
    if (k < inserts.size()) len = std::min(len, inserts[k].position - out);
    SVX_CHECK(len > 0);  // the row counts above add up
    plan.runs.push_back({false, r, r + len});
    r += len;
    out += len;
  }
  return plan;
}

/// Byte offset of every raw cell plus the end offset (num_rows + 1 entries).
Result<std::vector<size_t>> RawRowStarts(const ColumnChunk& chunk,
                                         const ColumnSpec& spec) {
  std::vector<size_t> starts;
  starts.reserve(static_cast<size_t>(chunk.num_rows) + 1);
  RawCellReader r(chunk.raw_cells);
  for (int64_t i = 0; i < chunk.num_rows; ++i) {
    starts.push_back(r.pos());
    SVX_RETURN_IF_ERROR(WalkRawContentIds(
        &r, spec, 0, [](const OrdPath&) { return Status::OK(); }));
  }
  starts.push_back(r.pos());
  return starts;
}

uint8_t RawTagTypeBit(uint8_t tag) {
  switch (tag) {
    case kCellString:
      return kTypeString;
    case kCellId:
      return kTypeId;
    case kCellContent:
      return kTypeContent;
    case kCellNested:
      return kTypeNested;  // raw decode gives nested cells the column schema
    default:
      return 0;
  }
}

/// Type bits of the non-null cells among prev's surviving rows. A non-raw
/// chunk stops at the first non-null survivor; `raw_starts` is set for raw
/// chunks.
Result<uint8_t> SurvivorTypes(const ColumnChunk& chunk,
                              const SplicePlan& plan,
                              const std::vector<size_t>& raw_starts) {
  const uint8_t own = EncodingTypeBit(chunk.encoding);
  switch (chunk.encoding) {
    case ColumnChunk::kDict:
      for (const SplicePlan::Run& run : plan.runs) {
        if (run.inserted) continue;
        for (int64_t i = run.lo; i < run.hi; ++i) {
          if (chunk.codes[static_cast<size_t>(i)] != ColumnChunk::kNullCode) {
            return own;
          }
        }
      }
      return 0;
    case ColumnChunk::kIds:
    case ColumnChunk::kContent: {
      IdRowReader r(chunk.id_bytes);
      int64_t row = 0;
      for (const SplicePlan::Run& run : plan.runs) {
        if (run.inserted) continue;
        for (; row < run.hi; ++row) {
          bool null = false;
          SVX_RETURN_IF_ERROR(r.Next(&null));
          if (!null && row >= run.lo) return own;
        }
      }
      return 0;
    }
    case ColumnChunk::kNested:
      for (const SplicePlan::Run& run : plan.runs) {
        if (run.inserted) continue;
        for (int64_t i = run.lo; i < run.hi; ++i) {
          if (chunk.nulls[static_cast<size_t>(i)] == 0) return own;
        }
      }
      return 0;
    case ColumnChunk::kRaw: {
      uint8_t types = 0;
      for (const SplicePlan::Run& run : plan.runs) {
        if (run.inserted) continue;
        for (int64_t i = run.lo; i < run.hi; ++i) {
          types |= RawTagTypeBit(static_cast<uint8_t>(
              chunk.raw_cells[raw_starts[static_cast<size_t>(i)]]));
        }
      }
      return types;
    }
  }
  return Status::ParseError("bad column chunk encoding");
}

const Value& InsertCell(const std::vector<FoldInsert>& inserts, int64_t k,
                        int32_t c) {
  return (*inserts[static_cast<size_t>(k)].row)[static_cast<size_t>(c)];
}

/// Dictionary fold: surviving codes are copied, remapped only when the
/// dictionary gains an inserted string or loses its last use of one.
ColumnChunkPtr FoldDict(const ColumnChunk& prev, const SplicePlan& plan,
                        const std::vector<FoldInsert>& inserts, int32_t c) {
  const std::vector<std::string>& dict = prev.dict;
  auto less = [](std::string_view a, std::string_view b) { return a < b; };
  std::vector<uint8_t> used(dict.size(), 0);
  for (const SplicePlan::Run& run : plan.runs) {
    if (run.inserted) continue;
    for (int64_t i = run.lo; i < run.hi; ++i) {
      uint32_t code = prev.codes[static_cast<size_t>(i)];
      if (code != ColumnChunk::kNullCode) used[code] = 1;
    }
  }
  std::vector<std::string_view> added;
  for (size_t k = 0; k < inserts.size(); ++k) {
    const Value& v = InsertCell(inserts, static_cast<int64_t>(k), c);
    if (v.IsNull()) continue;
    std::string_view s = v.AsString();
    auto it = std::lower_bound(dict.begin(), dict.end(), s, less);
    if (it != dict.end() && *it == s) {
      used[static_cast<size_t>(it - dict.begin())] = 1;
    } else {
      added.push_back(s);
    }
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());

  auto chunk = std::make_shared<ColumnChunk>();
  chunk->encoding = ColumnChunk::kDict;
  chunk->num_rows = plan.out_rows;
  bool identity = added.empty();
  std::vector<uint32_t> remap(dict.size(), ColumnChunk::kNullCode);
  chunk->dict.reserve(dict.size() + added.size());
  size_t a = 0;
  for (size_t i = 0; i < dict.size(); ++i) {
    if (used[i] == 0) {
      identity = false;
      continue;
    }
    while (a < added.size() && added[a] < std::string_view(dict[i])) {
      chunk->dict.emplace_back(added[a++]);
    }
    remap[i] = static_cast<uint32_t>(chunk->dict.size());
    chunk->dict.push_back(dict[i]);
  }
  while (a < added.size()) chunk->dict.emplace_back(added[a++]);

  const std::vector<std::string>& merged = chunk->dict;
  chunk->codes.reserve(static_cast<size_t>(plan.out_rows));
  for (const SplicePlan::Run& run : plan.runs) {
    if (run.inserted) {
      for (int64_t k = run.lo; k < run.hi; ++k) {
        const Value& v = InsertCell(inserts, k, c);
        if (v.IsNull()) {
          chunk->codes.push_back(ColumnChunk::kNullCode);
          continue;
        }
        auto it = std::lower_bound(merged.begin(), merged.end(),
                                   std::string_view(v.AsString()), less);
        chunk->codes.push_back(static_cast<uint32_t>(it - merged.begin()));
      }
    } else if (identity) {
      chunk->codes.insert(chunk->codes.end(), prev.codes.begin() + run.lo,
                          prev.codes.begin() + run.hi);
    } else {
      for (int64_t i = run.lo; i < run.hi; ++i) {
        uint32_t code = prev.codes[static_cast<size_t>(i)];
        chunk->codes.push_back(code == ColumnChunk::kNullCode ? code
                                                              : remap[code]);
      }
    }
  }
  return chunk;
}

/// ORDPATH fold: a surviving run's bytes are copied verbatim once the
/// output's last non-null id equals the one the run's bytes were coded
/// against; until then (only up to the run's first non-null row) rows are
/// re-encoded. The trailing run is copied without being parsed.
Result<ColumnChunkPtr> FoldIds(const ColumnChunk& prev,
                               const SplicePlan& plan,
                               const std::vector<FoldInsert>& inserts,
                               int32_t c) {
  auto chunk = std::make_shared<ColumnChunk>();
  chunk->encoding = prev.encoding;
  chunk->num_rows = plan.out_rows;
  std::string& out = chunk->id_bytes;
  out.reserve(prev.id_bytes.size() + 16 * inserts.size());
  std::vector<int32_t> out_last;  // the output's last non-null id
  IdRowReader r(prev.id_bytes);
  int64_t row = 0;  // next prev row `r` reads
  auto skip_to = [&](int64_t target) -> Status {
    for (; row < target; ++row) {
      bool null = false;
      SVX_RETURN_IF_ERROR(r.Next(&null));
    }
    return Status::OK();
  };
  for (size_t ri = 0; ri < plan.runs.size(); ++ri) {
    const SplicePlan::Run& run = plan.runs[ri];
    if (run.inserted) {
      for (int64_t k = run.lo; k < run.hi; ++k) {
        const Value& v = InsertCell(inserts, k, c);
        if (v.IsNull()) {
          PutVarint(0, &out);
        } else {
          AppendDeltaComps(CellOrdPath(v).components(), &out_last, &out);
        }
      }
      continue;
    }
    SVX_RETURN_IF_ERROR(skip_to(run.lo));
    if (out_last != r.last()) {
      // The run's first non-null row was coded against a predecessor the
      // fold removed or displaced: re-encode up to and including it.
      while (row < run.hi) {
        bool null = false;
        SVX_RETURN_IF_ERROR(r.Next(&null));
        ++row;
        if (null) {
          PutVarint(0, &out);
          continue;
        }
        AppendDeltaComps(r.last(), &out_last, &out);
        break;
      }
      if (row == run.hi) continue;
    }
    const size_t from = r.pos();
    if (ri + 1 == plan.runs.size() && run.hi == prev.num_rows) {
      // Nothing follows: copy the remaining bytes without parsing them.
      out.append(prev.id_bytes, from, std::string::npos);
      row = run.hi;
      continue;
    }
    SVX_RETURN_IF_ERROR(skip_to(run.hi));
    out.append(prev.id_bytes, from, r.pos() - from);
    out_last = r.last();
  }
  return ColumnChunkPtr(std::move(chunk));
}

/// Nested fold: offsets and ⊥ flags follow the row layout; the child
/// extent drops the deleted rows' groups and splices the inserted groups
/// in at their new offsets (shared untouched when neither exists).
Result<ColumnChunkPtr> FoldNested(const ColumnChunk& prev,
                                  const SplicePlan& plan,
                                  const std::vector<int64_t>& deleted,
                                  const std::vector<FoldInsert>& inserts,
                                  int32_t c, const Document* doc) {
  auto chunk = std::make_shared<ColumnChunk>();
  chunk->encoding = ColumnChunk::kNested;
  chunk->num_rows = plan.out_rows;
  chunk->offsets.reserve(static_cast<size_t>(plan.out_rows) + 1);
  chunk->nulls.reserve(static_cast<size_t>(plan.out_rows));
  chunk->offsets.push_back(0);
  std::vector<FoldInsert> child_inserts;
  for (const SplicePlan::Run& run : plan.runs) {
    if (run.inserted) {
      for (int64_t k = run.lo; k < run.hi; ++k) {
        const Value& v = InsertCell(inserts, k, c);
        const int64_t base = chunk->offsets.back();
        if (v.IsNull()) {
          chunk->nulls.push_back(1);
          chunk->offsets.push_back(base);
          continue;
        }
        const Table& group = v.AsTable();
        for (int64_t j = 0; j < group.NumRows(); ++j) {
          child_inserts.push_back({base + j, &group.row(j)});
        }
        chunk->nulls.push_back(0);
        chunk->offsets.push_back(base + group.NumRows());
      }
      continue;
    }
    for (int64_t i = run.lo; i < run.hi; ++i) {
      const size_t u = static_cast<size_t>(i);
      chunk->nulls.push_back(prev.nulls[u]);
      chunk->offsets.push_back(chunk->offsets.back() + prev.offsets[u + 1] -
                               prev.offsets[u]);
    }
  }
  std::vector<int64_t> child_deleted;
  for (int64_t d : deleted) {
    const size_t u = static_cast<size_t>(d);
    for (int64_t j = prev.offsets[u]; j < prev.offsets[u + 1]; ++j) {
      child_deleted.push_back(j);
    }
  }
  if (child_deleted.empty() && child_inserts.empty()) {
    chunk->child = prev.child;
  } else {
    Result<ColumnarExtent> child =
        ColumnarExtent::Fold(*prev.child, child_deleted, child_inserts, doc);
    if (!child.ok()) return child.status();
    chunk->child =
        std::make_shared<const ColumnarExtent>(std::move(child).value());
  }
  return ColumnChunkPtr(std::move(chunk));
}

/// Raw fold: surviving cells are copied, inserted ones encoded.
ColumnChunkPtr FoldRaw(const ColumnChunk& prev, const SplicePlan& plan,
                       const std::vector<FoldInsert>& inserts, int32_t c,
                       const std::vector<size_t>& starts) {
  auto chunk = std::make_shared<ColumnChunk>();
  chunk->encoding = ColumnChunk::kRaw;
  chunk->num_rows = plan.out_rows;
  for (const SplicePlan::Run& run : plan.runs) {
    if (run.inserted) {
      for (int64_t k = run.lo; k < run.hi; ++k) {
        PutRawCell(InsertCell(inserts, k, c), &chunk->raw_cells);
      }
      continue;
    }
    const size_t from = starts[static_cast<size_t>(run.lo)];
    chunk->raw_cells.append(prev.raw_cells, from,
                            starts[static_cast<size_t>(run.hi)] - from);
  }
  return chunk;
}

/// Fold of a column whose encoding changes: decode the survivors (only if
/// any is non-null), splice, and encode from scratch.
Result<ColumnChunkPtr> FoldByReencoding(const ColumnChunk& prev,
                                        const ColumnSpec& spec,
                                        const SplicePlan& plan,
                                        const std::vector<FoldInsert>& inserts,
                                        int32_t c, bool survivors_null,
                                        const Document* doc) {
  std::vector<Value> old_cells;
  if (!survivors_null) {
    SVX_RETURN_IF_ERROR(DecodeColumnValues(prev, spec, doc, &old_cells));
  }
  std::vector<Value> cells;
  cells.reserve(static_cast<size_t>(plan.out_rows));
  for (const SplicePlan::Run& run : plan.runs) {
    for (int64_t i = run.lo; i < run.hi; ++i) {
      if (run.inserted) {
        cells.push_back(InsertCell(inserts, i, c));
      } else if (survivors_null) {
        cells.emplace_back();
      } else {
        cells.push_back(std::move(old_cells[static_cast<size_t>(i)]));
      }
    }
  }
  return EncodeCells(
      plan.out_rows,
      [&](int64_t i) -> const Value& { return cells[static_cast<size_t>(i)]; },
      spec);
}

Result<ColumnChunkPtr> FoldColumn(const ColumnChunk& prev,
                                  const ColumnSpec& spec,
                                  const SplicePlan& plan,
                                  const std::vector<int64_t>& deleted,
                                  const std::vector<FoldInsert>& inserts,
                                  int32_t c, const Document* doc) {
  std::vector<size_t> raw_starts;
  if (prev.encoding == ColumnChunk::kRaw) {
    Result<std::vector<size_t>> starts = RawRowStarts(prev, spec);
    if (!starts.ok()) return starts.status();
    raw_starts = std::move(starts).value();
  }
  uint8_t inserted = 0;
  for (size_t k = 0; k < inserts.size(); ++k) {
    inserted |= CellTypeBit(InsertCell(inserts, static_cast<int64_t>(k), c),
                            spec);
  }
  // The survivors of a non-raw chunk have at most its own type; when the
  // inserts already have it, the union does not depend on them.
  const uint8_t own = EncodingTypeBit(prev.encoding);
  uint8_t survivors = own;
  if (own == 0 || (inserted & own) == 0) {
    Result<uint8_t> types = SurvivorTypes(prev, plan, raw_starts);
    if (!types.ok()) return types.status();
    survivors = *types;
  }
  if (EncodingFor(inserted | survivors) != prev.encoding) {
    return FoldByReencoding(prev, spec, plan, inserts, c, survivors == 0,
                            doc);
  }
  switch (prev.encoding) {
    case ColumnChunk::kDict:
      return FoldDict(prev, plan, inserts, c);
    case ColumnChunk::kIds:
    case ColumnChunk::kContent:
      return FoldIds(prev, plan, inserts, c);
    case ColumnChunk::kNested:
      if (prev.child == nullptr ||
          prev.offsets.size() != static_cast<size_t>(prev.num_rows) + 1 ||
          prev.nulls.size() != static_cast<size_t>(prev.num_rows)) {
        return Status::ParseError("malformed nested column chunk");
      }
      return FoldNested(prev, plan, deleted, inserts, c, doc);
    case ColumnChunk::kRaw:
      return FoldRaw(prev, plan, inserts, c, raw_starts);
  }
  return Status::ParseError("bad column chunk encoding");
}

}  // namespace

bool ColumnChunk::operator==(const ColumnChunk& other) const {
  if (encoding != other.encoding || num_rows != other.num_rows) return false;
  switch (encoding) {
    case kDict:
      return dict == other.dict && codes == other.codes;
    case kIds:
    case kContent:
      return id_bytes == other.id_bytes;
    case kNested:
      if (offsets != other.offsets || nulls != other.nulls) return false;
      if (child == other.child) return true;
      return child != nullptr && other.child != nullptr &&
             *child == *other.child;
    case kRaw:
      return raw_cells == other.raw_cells;
  }
  return false;
}

ColumnarExtent ColumnarExtent::Encode(const Table& table) {
  ColumnarExtent out;
  out.schema_ = table.schema();
  out.num_rows_ = table.NumRows();
  out.columns_.reserve(static_cast<size_t>(out.schema_.size()));
  for (int32_t c = 0; c < out.schema_.size(); ++c) {
    const ColumnSpec& spec = out.schema_.column(c);
    ColumnChunkPtr chunk = EncodeColumn(table, c, spec);
    out.has_content_ = out.has_content_ || ChunkHasContent(*chunk, spec);
    out.columns_.push_back(std::move(chunk));
  }
  return out;
}

ColumnarExtent ColumnarExtent::EncodeSharing(const Table& table,
                                             const ColumnarExtent& prev) {
  ColumnarExtent out = Encode(table);
  if (!(out.schema_ == prev.schema_)) return out;
  for (size_t c = 0; c < out.columns_.size(); ++c) {
    if (c < prev.columns_.size() && prev.columns_[c] != nullptr &&
        *out.columns_[c] == *prev.columns_[c]) {
      out.columns_[c] = prev.columns_[c];
    }
  }
  return out;
}

Result<ColumnarExtent> ColumnarExtent::Fold(
    const ColumnarExtent& prev, const std::vector<int64_t>& deleted_rows,
    const std::vector<FoldInsert>& inserts, const Document* doc) {
  if (deleted_rows.empty() && inserts.empty()) return prev;
  Result<SplicePlan> plan = PlanSplice(prev.num_rows_, deleted_rows, inserts);
  if (!plan.ok()) return plan.status();
  for (const FoldInsert& ins : inserts) {
    if (static_cast<int32_t>(ins.row->size()) != prev.schema_.size()) {
      return Status::InvalidArgument("fold: inserted row arity mismatch");
    }
  }
  ColumnarExtent out;
  out.schema_ = prev.schema_;
  out.num_rows_ = plan->out_rows;
  out.columns_.reserve(prev.columns_.size());
  for (int32_t c = 0; c < prev.schema_.size(); ++c) {
    const ColumnChunkPtr& old = prev.columns_[static_cast<size_t>(c)];
    const ColumnSpec& spec = prev.schema_.column(c);
    if (old == nullptr || old->num_rows != prev.num_rows_) {
      return Status::ParseError("column chunk row count mismatch");
    }
    Result<ColumnChunkPtr> folded =
        FoldColumn(*old, spec, *plan, deleted_rows, inserts, c, doc);
    if (!folded.ok()) return folded.status();
    ColumnChunkPtr chunk = std::move(folded).value();
    // As in EncodeSharing: an unchanged column keeps the prior chunk object.
    if (chunk->num_rows == old->num_rows && *chunk == *old) chunk = old;
    out.has_content_ = out.has_content_ || ChunkHasContent(*chunk, spec);
    out.columns_.push_back(std::move(chunk));
  }
  return out;
}

Result<Table> ColumnarExtent::Decode(const Document* doc) const {
  std::vector<bool> all(static_cast<size_t>(schema_.size()), true);
  return DecodeColumns(all, doc);
}

Result<Table> ColumnarExtent::DecodeColumns(const std::vector<bool>& used,
                                            const Document* doc) const {
  if (used.size() != static_cast<size_t>(schema_.size())) {
    return Status::InvalidArgument("column-use mask arity mismatch");
  }
  std::vector<std::vector<Value>> cols(static_cast<size_t>(schema_.size()));
  for (int32_t c = 0; c < schema_.size(); ++c) {
    if (!used[static_cast<size_t>(c)]) continue;
    const ColumnChunkPtr& chunk = columns_[static_cast<size_t>(c)];
    if (chunk == nullptr || chunk->num_rows != num_rows_) {
      return Status::ParseError("column chunk row count mismatch");
    }
    SVX_RETURN_IF_ERROR(DecodeColumnValues(*chunk, schema_.column(c), doc,
                                           &cols[static_cast<size_t>(c)]));
  }
  Table table(schema_);
  for (int64_t i = 0; i < num_rows_; ++i) {
    Tuple row;
    row.reserve(static_cast<size_t>(schema_.size()));
    for (int32_t c = 0; c < schema_.size(); ++c) {
      if (used[static_cast<size_t>(c)]) {
        row.push_back(std::move(cols[static_cast<size_t>(c)]
                                    [static_cast<size_t>(i)]));
      } else {
        row.push_back(Value());
      }
    }
    table.AddRow(std::move(row));
  }
  return table;
}

int64_t ColumnarExtent::SerializedByteSize() const {
  int64_t size = VarintSize(static_cast<uint64_t>(num_rows_));
  for (const ColumnChunkPtr& chunk : columns_) {
    size += 1;  // encoding tag
    switch (chunk->encoding) {
      case ColumnChunk::kDict: {
        size += VarintSize(chunk->dict.size());
        for (const std::string& s : chunk->dict) {
          size += VarintSize(s.size()) + static_cast<int64_t>(s.size());
        }
        for (uint32_t code : chunk->codes) {
          size += VarintSize(code == ColumnChunk::kNullCode
                                 ? 0
                                 : static_cast<uint64_t>(code) + 1);
        }
        break;
      }
      case ColumnChunk::kIds:
      case ColumnChunk::kContent:
        size += VarintSize(chunk->id_bytes.size()) +
                static_cast<int64_t>(chunk->id_bytes.size());
        break;
      case ColumnChunk::kNested: {
        size += (chunk->num_rows + 7) / 8;  // ⊥ bitmap
        for (int64_t i = 0; i < chunk->num_rows; ++i) {
          if (chunk->nulls[static_cast<size_t>(i)] == 0) {
            size += VarintSize(static_cast<uint64_t>(
                chunk->offsets[static_cast<size_t>(i) + 1] -
                chunk->offsets[static_cast<size_t>(i)]));
          }
        }
        size += chunk->child->SerializedByteSize();
        break;
      }
      case ColumnChunk::kRaw:
        size += VarintSize(chunk->raw_cells.size()) +
                static_cast<int64_t>(chunk->raw_cells.size());
        break;
    }
  }
  return size;
}

void ColumnarExtent::AppendBytes(std::string* out) const {
  PutVarint(static_cast<uint64_t>(num_rows_), out);
  for (const ColumnChunkPtr& chunk : columns_) {
    out->push_back(static_cast<char>(chunk->encoding));
    switch (chunk->encoding) {
      case ColumnChunk::kDict: {
        PutVarint(chunk->dict.size(), out);
        for (const std::string& s : chunk->dict) {
          PutVarint(s.size(), out);
          out->append(s);
        }
        for (uint32_t code : chunk->codes) {
          PutVarint(code == ColumnChunk::kNullCode
                        ? 0
                        : static_cast<uint64_t>(code) + 1,
                    out);
        }
        break;
      }
      case ColumnChunk::kIds:
      case ColumnChunk::kContent:
        PutVarint(chunk->id_bytes.size(), out);
        out->append(chunk->id_bytes);
        break;
      case ColumnChunk::kNested: {
        std::string bitmap(static_cast<size_t>((chunk->num_rows + 7) / 8),
                           '\0');
        for (int64_t i = 0; i < chunk->num_rows; ++i) {
          if (chunk->nulls[static_cast<size_t>(i)] != 0) {
            bitmap[static_cast<size_t>(i / 8)] |=
                static_cast<char>(1 << (i % 8));
          }
        }
        out->append(bitmap);
        for (int64_t i = 0; i < chunk->num_rows; ++i) {
          if (chunk->nulls[static_cast<size_t>(i)] == 0) {
            PutVarint(static_cast<uint64_t>(
                          chunk->offsets[static_cast<size_t>(i) + 1] -
                          chunk->offsets[static_cast<size_t>(i)]),
                      out);
          }
        }
        chunk->child->AppendBytes(out);
        break;
      }
      case ColumnChunk::kRaw:
        PutVarint(chunk->raw_cells.size(), out);
        out->append(chunk->raw_cells);
        break;
    }
  }
}

Result<ColumnarExtent> ColumnarExtent::FromBytes(std::string_view bytes,
                                                 size_t* pos, Schema schema) {
  ByteReader r(bytes, *pos);
  uint64_t nrows = 0;
  if (!r.GetVarint(&nrows)) return Truncated(r);
  // Every non-empty column costs at least one byte per row downstream, so a
  // row count beyond the remaining input is corrupt, not just large.
  if (schema.size() > 0 && nrows > r.Remaining() + 1) {
    return Status::ParseError("columnar row count exceeds input size");
  }
  ColumnarExtent out;
  out.num_rows_ = static_cast<int64_t>(nrows);
  out.schema_ = std::move(schema);
  out.columns_.reserve(static_cast<size_t>(out.schema_.size()));
  for (int32_t c = 0; c < out.schema_.size(); ++c) {
    const ColumnSpec& spec = out.schema_.column(c);
    auto chunk = std::make_shared<ColumnChunk>();
    chunk->num_rows = out.num_rows_;
    uint8_t encoding = 0;
    if (!r.GetU8(&encoding)) return Truncated(r);
    if (encoding > ColumnChunk::kRaw) {
      return Status::ParseError(
          StrFormat("bad column encoding %u", static_cast<unsigned>(encoding)));
    }
    chunk->encoding = static_cast<ColumnChunk::Encoding>(encoding);
    switch (chunk->encoding) {
      case ColumnChunk::kDict: {
        uint64_t ndict = 0;
        if (!r.GetVarint(&ndict) || ndict > r.Remaining()) return Truncated(r);
        chunk->dict.reserve(static_cast<size_t>(ndict));
        for (uint64_t i = 0; i < ndict; ++i) {
          uint64_t len = 0;
          std::string s;
          if (!r.GetVarint(&len) || !r.GetBytes(static_cast<size_t>(len), &s)) {
            return Truncated(r);
          }
          chunk->dict.push_back(std::move(s));
        }
        chunk->codes.reserve(static_cast<size_t>(nrows));
        for (uint64_t i = 0; i < nrows; ++i) {
          uint64_t code = 0;
          if (!r.GetVarint(&code)) return Truncated(r);
          if (code == 0) {
            chunk->codes.push_back(ColumnChunk::kNullCode);
          } else if (code <= ndict) {
            chunk->codes.push_back(static_cast<uint32_t>(code - 1));
          } else {
            return Status::ParseError("dictionary code out of range");
          }
        }
        break;
      }
      case ColumnChunk::kIds:
      case ColumnChunk::kContent: {
        uint64_t len = 0;
        if (!r.GetVarint(&len) ||
            !r.GetBytes(static_cast<size_t>(len), &chunk->id_bytes)) {
          return Truncated(r);
        }
        break;
      }
      case ColumnChunk::kNested: {
        if (spec.nested == nullptr) {
          return Status::ParseError("nested chunk in a non-nested column");
        }
        size_t nbitmap = static_cast<size_t>((nrows + 7) / 8);
        std::string bitmap;
        if (!r.GetBytes(nbitmap, &bitmap)) return Truncated(r);
        chunk->nulls.reserve(static_cast<size_t>(nrows));
        for (uint64_t i = 0; i < nrows; ++i) {
          chunk->nulls.push_back(
              (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1);
        }
        chunk->offsets.reserve(static_cast<size_t>(nrows) + 1);
        chunk->offsets.push_back(0);
        for (uint64_t i = 0; i < nrows; ++i) {
          int64_t group = 0;
          if (chunk->nulls[static_cast<size_t>(i)] == 0) {
            uint64_t size = 0;
            if (!r.GetVarint(&size)) return Truncated(r);
            group = static_cast<int64_t>(size);
          }
          chunk->offsets.push_back(chunk->offsets.back() + group);
        }
        size_t child_pos = r.pos();
        Result<ColumnarExtent> child =
            FromBytes(bytes, &child_pos, *spec.nested);
        if (!child.ok()) return child.status();
        if (child->num_rows() != chunk->offsets.back()) {
          return Status::ParseError("nested child row count mismatch");
        }
        chunk->child = std::make_shared<const ColumnarExtent>(
            std::move(*child));
        r = ByteReader(bytes, child_pos);
        break;
      }
      case ColumnChunk::kRaw: {
        uint64_t len = 0;
        if (!r.GetVarint(&len) ||
            !r.GetBytes(static_cast<size_t>(len), &chunk->raw_cells)) {
          return Truncated(r);
        }
        break;
      }
    }
    out.has_content_ = out.has_content_ || ChunkHasContent(*chunk, spec);
    out.columns_.push_back(std::move(chunk));
  }
  *pos = r.pos();
  return out;
}

Status ColumnarExtent::ForEachContentId(
    const std::function<Status(const OrdPath&)>& fn) const {
  for (int32_t c = 0; c < schema_.size(); ++c) {
    const ColumnChunk& chunk = *columns_[static_cast<size_t>(c)];
    const ColumnSpec& spec = schema_.column(c);
    switch (chunk.encoding) {
      case ColumnChunk::kContent: {
        IdRowReader r(chunk.id_bytes);
        for (int64_t i = 0; i < chunk.num_rows; ++i) {
          bool null = false;
          SVX_RETURN_IF_ERROR(r.Next(&null));
          if (!null) SVX_RETURN_IF_ERROR(fn(OrdPath(r.last())));
        }
        break;
      }
      case ColumnChunk::kNested:
        if (chunk.child != nullptr) {
          SVX_RETURN_IF_ERROR(chunk.child->ForEachContentId(fn));
        }
        break;
      case ColumnChunk::kRaw: {
        RawCellReader r(chunk.raw_cells);
        for (int64_t i = 0; i < chunk.num_rows; ++i) {
          SVX_RETURN_IF_ERROR(WalkRawContentIds(&r, spec, 0, fn));
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

bool ColumnarExtent::operator==(const ColumnarExtent& other) const {
  if (!(schema_ == other.schema_) || num_rows_ != other.num_rows_ ||
      columns_.size() != other.columns_.size()) {
    return false;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == other.columns_[c]) continue;
    if (columns_[c] == nullptr || other.columns_[c] == nullptr ||
        !(*columns_[c] == *other.columns_[c])) {
      return false;
    }
  }
  return true;
}

}  // namespace svx
