#ifndef VIEWJOIN_XML_DOCUMENT_H_
#define VIEWJOIN_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "xml/label.h"

namespace viewjoin::xml {

/// Flat preorder description of a subtree to insert into a live document.
/// `nodes[0]` is the subtree root (parent == kNoParent); every other node's
/// parent indexes an *earlier* spec node, so the vector is a valid preorder.
struct SubtreeSpec {
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;
  struct Node {
    std::string tag;
    uint32_t parent = kNoParent;
  };
  std::vector<Node> nodes;
};

/// Region-labelled XML element tree stored in struct-of-arrays form.
///
/// Nodes are identified by `NodeId`. For documents built purely through
/// StartElement/EndElement, node ids are also the document-order rank; live
/// updates (InsertSubtree/DeleteSubtree) append new ids at the end and
/// tombstone removed ones, so after updates only the per-tag streams — which
/// are kept sorted by start label — define document order. The document owns
/// a tag table interning element-type names to dense `TagId`s, and an
/// inverted index from TagId to the document-ordered list of live nodes of
/// that type (the "element streams" all join algorithms consume).
class Document {
 public:
  Document() = default;

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Deep copy, explicit so a large document is never copied by accident.
  /// Live updates run a batch on a clone and swap it in once it commits.
  Document Clone() const;

  // ---- Tag table -----------------------------------------------------------

  /// Interns `name`, returning its dense id (existing id if already known).
  TagId InternTag(std::string_view name);

  /// Returns the id of `name`, or kInvalidTag if never interned.
  TagId FindTag(std::string_view name) const;

  /// Returns the name of an interned tag id.
  const std::string& TagName(TagId tag) const;

  /// Number of distinct tags.
  size_t TagCount() const { return tag_names_.size(); }

  // ---- Tree construction (document order) ----------------------------------

  /// Opens an element as a child of the element most recently opened and not
  /// yet closed (or as the root). Returns the new node's id.
  NodeId StartElement(TagId tag);
  NodeId StartElement(std::string_view name) {
    return StartElement(InternTag(name));
  }

  /// Closes the most recently opened element.
  void EndElement();

  /// Accounts `n` extra label positions for text content between tags so
  /// that serialized/real documents with text round-trip to the same labels.
  void SkipTextPositions(uint32_t n) { next_pos_ += n; }

  /// True once every opened element is closed and there is a root.
  bool IsComplete() const { return open_stack_.empty() && !labels_.empty(); }

  /// True while at least one element is open during construction.
  bool HasOpenElement() const { return !open_stack_.empty(); }

  /// Tag of the innermost open element; invalid when none is open.
  TagId OpenElementTag() const {
    return open_stack_.empty() ? kInvalidTag : tags_[open_stack_.back()];
  }

  // ---- Node accessors -------------------------------------------------------

  size_t NodeCount() const { return labels_.size(); }
  const Label& NodeLabel(NodeId n) const { return labels_[n]; }
  TagId NodeTag(NodeId n) const { return tags_[n]; }
  NodeId Parent(NodeId n) const { return parents_[n]; }
  NodeId FirstChild(NodeId n) const { return first_child_[n]; }
  NodeId NextSibling(NodeId n) const { return next_sibling_[n]; }
  NodeId Root() const { return labels_.empty() ? kInvalidNode : 0; }

  /// Document-ordered node ids of all elements of type `tag` (empty list for
  /// unknown tags).
  const std::vector<NodeId>& NodesOfTag(TagId tag) const;

  /// Node of type `tag` whose label has the given `start`, or kInvalidNode.
  /// Start labels are unique, so this resolves stored labels back to nodes.
  NodeId FindByStart(TagId tag, uint32_t start) const;

  // ---- Live updates ---------------------------------------------------------
  //
  // Gap-based region labeling: RelabelWithGap(g) multiplies every label
  // position by g, opening g-1 unused positions between any two adjacent
  // ones. InsertSubtree then allocates labels strictly inside the gap at the
  // insertion point without touching any existing label; only when a gap is
  // too small for the inserted subtree does it fail with kResourceExhausted,
  // and the caller relabels (and rebuilds anything that stores labels).

  /// Multiplies all label positions by `gap` (> 0), preserving document
  /// order and all structural relations. Fails with kResourceExhausted if
  /// the largest position would overflow 32 bits, with kInvalidArgument on
  /// gap == 0 or an incomplete document. Bumps revision().
  util::Status RelabelWithGap(uint32_t gap);

  /// Inserts `spec` under `parent`, positioned after the existing child
  /// `after` (kInvalidNode inserts as the first child). New nodes take ids
  /// [NodeCount() before, NodeCount() after) in spec preorder; the returned
  /// id is the subtree root's. Labels are evenly spaced inside the gap at
  /// the insertion point; fails with kResourceExhausted when the gap cannot
  /// fit 2·|spec| new positions (relabel and retry), kInvalidArgument on a
  /// malformed spec or attachment point. Bumps revision().
  util::StatusOr<NodeId> InsertSubtree(const SubtreeSpec& spec, NodeId parent,
                                       NodeId after = kInvalidNode);

  /// Unlinks the subtree rooted at `root` (which must not be the document
  /// root) and tombstones its nodes: they leave every per-tag stream and the
  /// structure links, but their labels and tags stay readable so callers can
  /// compute deltas from the ids appended to `removed` (preorder). Bumps
  /// revision(). Fails with kInvalidArgument on the document root or an
  /// already-deleted node.
  util::Status DeleteSubtree(NodeId root,
                             std::vector<NodeId>* removed = nullptr);

  /// True iff `n` is a valid, non-tombstoned node.
  bool IsLive(NodeId n) const {
    return n < labels_.size() && !deleted_[n];
  }

  /// Nodes currently in the tree (NodeCount() minus tombstones).
  size_t LiveNodeCount() const { return labels_.size() - deleted_count_; }

  /// Monotone counter bumped by every mutating call after construction;
  /// caches keyed on document content (statistics, plans) compare this.
  uint64_t revision() const { return revision_; }

  // ---- Structural predicates on node ids ------------------------------------

  bool IsAncestor(NodeId a, NodeId b) const {
    return xml::IsAncestor(labels_[a], labels_[b]);
  }
  bool IsParent(NodeId a, NodeId b) const {
    return xml::IsParent(labels_[a], labels_[b]);
  }

  /// Approximate in-memory footprint in bytes (used for space reporting).
  size_t MemoryBytes() const;

 private:
  std::vector<Label> labels_;
  std::vector<TagId> tags_;
  std::vector<NodeId> parents_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> last_child_;  // build-time helper for sibling links
  std::vector<NodeId> next_sibling_;
  std::vector<uint8_t> deleted_;  // tombstones from DeleteSubtree

  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, TagId> tag_ids_;
  std::vector<std::vector<NodeId>> nodes_by_tag_;
  std::vector<NodeId> empty_list_;

  std::vector<NodeId> open_stack_;
  uint32_t next_pos_ = 1;
  size_t deleted_count_ = 0;
  uint64_t revision_ = 0;
};

/// Converts the subtree of `doc` rooted at `root` (default: the whole
/// document) into a SubtreeSpec, e.g. to graft a parsed fragment into a live
/// document via InsertSubtree.
SubtreeSpec SpecFromDocument(const Document& doc, NodeId root = 0);

}  // namespace viewjoin::xml

#endif  // VIEWJOIN_XML_DOCUMENT_H_
