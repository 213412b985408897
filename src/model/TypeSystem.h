//===- model/TypeSystem.h - Framework metadata model ------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framework-metadata substrate: namespaces, types (classes, interfaces,
/// structs, enums, primitives), fields/properties, and methods, together with
/// the subtype / implicit-conversion relation and the paper's *type distance*
/// function td(a, b) (§4.1):
///
///   td(a, b) = 0                          if a == b
///            = 1 + min over declared immediate supertypes s of td(s, b)
///            = undefined                  if there is no implicit conversion
///
/// Primitive types participate through their widening chain (byte -> short ->
/// int -> long -> float -> double, char -> int), whose final element's
/// supertype is Object (modelling boxing), so td is total on convertible
/// pairs. The paper's authors consumed this information from .NET binaries
/// via CCI; petal exposes the same facts from an in-memory model that the
/// parser and the synthetic corpus generator populate.
///
/// td is stored once, as a per-type ancestor CSR: one row per type listing
/// every type it converts to with the distance, sorted by id. Class
/// hierarchies are shallow, so rows are short (a few entries; about 20 KB
/// for a 750-type corpus) and a lookup is a scan of one row. The `null`
/// literal is the one exception: it converts at distance 0 to every
/// reference type by an explicit rule, not through its row.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_MODEL_TYPESYSTEM_H
#define PETAL_MODEL_TYPESYSTEM_H

#include "model/Ids.h"
#include "support/Span.h"

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace petal {

/// Classification of a type declaration.
enum class TypeKind {
  Class,
  Interface,
  Struct,
  Enum,
  Primitive,
  Void,
};

/// A namespace; namespaces form a forest rooted at the global namespace
/// (id 0, empty name).
struct NamespaceInfo {
  /// The ranking's common-namespace term counts shared segments up to this
  /// many (§4.1: 3 − min(3, |common prefix|)).
  static constexpr size_t MaxPrefix = 3;

  std::string FullName;              ///< Dotted path; empty for the root.
  std::vector<std::string> Segments; ///< FullName split on '.'.
  NamespaceId Parent = InvalidId;    ///< Enclosing namespace; InvalidId for root.
  /// Prefix[K]: the id of the namespace named by the first K + 1 segments
  /// (InvalidId past the last one). Names are interned, so two namespaces
  /// share their first K + 1 segments iff their Prefix[K] ids are equal —
  /// the ranking compares ids instead of segment strings.
  std::array<NamespaceId, MaxPrefix> Prefix = {InvalidId, InvalidId,
                                               InvalidId};
};

/// A field or property. Properties are, per the paper (footnote 1), treated
/// exactly like fields.
struct FieldInfo {
  std::string Name;
  TypeId Owner = InvalidId;
  TypeId Type = InvalidId;
  bool IsStatic = false;
  bool IsProperty = false;
};

/// A formal parameter of a method.
struct ParamInfo {
  std::string Name;
  TypeId Type = InvalidId;
};

/// A method. `Params` holds the declared parameters only; for instance
/// methods the receiver is exposed as an implicit first argument of the
/// *call signature* (see TypeSystem::callParamTypes), matching the paper's
/// receiver-as-first-argument convention (§3).
struct MethodInfo {
  std::string Name;
  TypeId Owner = InvalidId;
  TypeId ReturnType = InvalidId;
  std::vector<ParamInfo> Params;
  bool IsStatic = false;
};

/// A type declaration.
struct TypeInfo {
  std::string Name;                 ///< Simple (unqualified) name.
  NamespaceId Namespace = 0;
  TypeKind Kind = TypeKind::Class;
  TypeId BaseClass = InvalidId;     ///< Direct base; InvalidId for Object/void.
  std::vector<TypeId> Interfaces;   ///< Directly implemented interfaces.
  std::vector<FieldId> Fields;      ///< Declared fields (not inherited).
  std::vector<MethodId> Methods;    ///< Declared methods (not inherited).
  /// For primitives: the next type in the widening chain (InvalidId at the
  /// chain end, where the supertype becomes Object).
  TypeId WideningTarget = InvalidId;
  /// True if values of this type support the relational operators. Numeric
  /// primitives and enums are comparable implicitly; classes/structs can be
  /// flagged (modelling IComparable / user-defined operators).
  bool IsComparable = false;
};

/// One entry of a type's ancestor row: a type it implicitly converts to and
/// td to it. The explicit pad keeps every byte of a row (and so of a
/// snapshot) a pure function of the type graph.
struct AncestorEntry {
  TypeId Type = InvalidId;
  int16_t Dist = 0;
  uint16_t Pad = 0;
};

/// The mutable framework model. Construction installs Object, void, and the
/// primitive types; the parser and corpus generator add everything else.
///
/// A TypeSystem can also be constructed as an *overlay* over a frozen base
/// layer (the base/overlay workspace model, DESIGN.md §14): the overlay
/// starts out holding every entity of the base — same ids, same builtins —
/// but stores locally only what is added afterwards. Entity ids continue
/// the base numbering, so an overlay plus its base is indistinguishable
/// from one monolithic model that resolved the base source first; accessors
/// dispatch on the id range. The base is shared read-only (many overlays,
/// concurrent queries) and must hold every ancestor row (fillAncestorRows(),
/// which CompletionIndexes::freeze() runs) before overlays attach; mutators
/// assert they only ever touch overlay-layer entities.
class TypeSystem {
public:
  TypeSystem();

  /// Constructs an overlay extending \p BaseLayer (non-null). The overlay
  /// keeps ancestor rows for its own types only; a base type's row is the
  /// base's. It never mutates the base.
  explicit TypeSystem(std::shared_ptr<const TypeSystem> BaseLayer);

  // The ancestor-row views point into this object's own vectors.
  TypeSystem(const TypeSystem &) = delete;
  TypeSystem &operator=(const TypeSystem &) = delete;

  //===--------------------------------------------------------------------===
  // Construction
  //===--------------------------------------------------------------------===

  /// Interns the namespace with the given dotted \p FullName (creating all
  /// ancestors) and returns its id. The empty name is the root namespace.
  NamespaceId getOrAddNamespace(const std::string &FullName);

  /// Adds a type with simple name \p Name in \p Ns. Classes default to base
  /// Object; pass an explicit \p Base to override. Returns the new id.
  /// Adding a type whose qualified name already exists is a programming
  /// error (asserts).
  TypeId addType(const std::string &Name, NamespaceId Ns, TypeKind Kind,
                 TypeId Base = InvalidId);

  /// Adds a field/property to \p Owner.
  FieldId addField(TypeId Owner, const std::string &Name, TypeId Type,
                   bool IsStatic = false, bool IsProperty = false);

  /// Adds a method to \p Owner.
  MethodId addMethod(TypeId Owner, const std::string &Name, TypeId ReturnType,
                     std::vector<ParamInfo> Params, bool IsStatic = false);

  /// Marks \p T as supporting relational comparison.
  void setComparable(TypeId T, bool Value = true);

  /// Re-points the base class of \p T (used by the resolver, which registers
  /// all types before resolving base-class names). \p T must not have an
  /// ancestor row yet (asserted): one is filled at the first relation query.
  void setBaseClass(TypeId T, TypeId Base);

  /// Adds \p Iface to the interface list of \p T; same precondition as
  /// setBaseClass.
  void addInterface(TypeId T, TypeId Iface);

  //===--------------------------------------------------------------------===
  // Entity access
  //===--------------------------------------------------------------------===

  const TypeInfo &type(TypeId T) const {
    return static_cast<size_t>(T) < NumBaseTypes ? Base->Types[T]
                                                 : Types[T - NumBaseTypes];
  }
  const FieldInfo &field(FieldId F) const {
    return static_cast<size_t>(F) < NumBaseFields ? Base->Fields[F]
                                                  : Fields[F - NumBaseFields];
  }
  const MethodInfo &method(MethodId M) const {
    return static_cast<size_t>(M) < NumBaseMethods
               ? Base->Methods[M]
               : Methods[M - NumBaseMethods];
  }
  const NamespaceInfo &nspace(NamespaceId N) const {
    return static_cast<size_t>(N) < NumBaseNamespaces
               ? Base->Namespaces[N]
               : Namespaces[N - NumBaseNamespaces];
  }

  /// The shared base layer this model overlays, or null for a monolithic
  /// model. Overlay entity ids start at numBaseTypes()/numBaseFields()/...
  const TypeSystem *baseLayer() const { return Base.get(); }
  size_t numBaseTypes() const { return NumBaseTypes; }
  size_t numBaseFields() const { return NumBaseFields; }
  size_t numBaseMethods() const { return NumBaseMethods; }
  size_t numBaseNamespaces() const { return NumBaseNamespaces; }

  /// A cheap structural fingerprint: the entity counts. Every mutator grows
  /// one of them, so an unchanged fingerprint across an operation that was
  /// *supposed* to be read-only (e.g. re-resolving method bodies against a
  /// type system shared with a previous document version — see
  /// Resolver::resolveFileReusingDecls) is a usable "nothing was added"
  /// check. It deliberately stays O(1); content equality is the job of the
  /// declaration-unit hashes (parser/DeclUnits.h).
  struct Fingerprint {
    size_t Types = 0;
    size_t Fields = 0;
    size_t Methods = 0;
    size_t Namespaces = 0;
    bool operator==(const Fingerprint &) const = default;
  };
  Fingerprint fingerprint() const {
    return {numTypes(), numFields(), numMethods(), numNamespaces()};
  }

  // Entity counts are totals (base + overlay), so id-order iteration loops
  // over [0, numX()) enumerate both layers exactly as a monolithic model
  // would — the property the bit-identity guarantee rests on.
  size_t numTypes() const { return NumBaseTypes + Types.size(); }
  size_t numFields() const { return NumBaseFields + Fields.size(); }
  size_t numMethods() const { return NumBaseMethods + Methods.size(); }
  size_t numNamespaces() const { return NumBaseNamespaces + Namespaces.size(); }

  /// Approximate heap bytes owned by *this layer* (an overlay reports only
  /// its delta; the shared base is not re-counted). Feeds the $/stats
  /// "memory" block.
  size_t memoryBytes() const;

  /// Built-in type ids.
  TypeId objectType() const { return ObjectTy; }
  TypeId voidType() const { return VoidTy; }
  TypeId intType() const { return IntTy; }
  TypeId longType() const { return LongTy; }
  TypeId shortType() const { return ShortTy; }
  TypeId byteType() const { return ByteTy; }
  TypeId charType() const { return CharTy; }
  TypeId floatType() const { return FloatTy; }
  TypeId doubleType() const { return DoubleTy; }
  TypeId boolType() const { return BoolTy; }
  TypeId stringType() const { return StringTy; }

  /// The pseudo-type of the `null` literal, implicitly convertible to every
  /// reference type (classes, interfaces, string, Object).
  TypeId nullType() const { return NullTy; }

  /// True for class/interface types (including Object and string), the
  /// targets a `null` may convert to.
  bool isReferenceType(TypeId T) const {
    TypeKind K = type(T).Kind;
    return K == TypeKind::Class || K == TypeKind::Interface;
  }

  /// True for the types installed by the constructor (object, void, the
  /// primitives, string, and the null pseudo-type).
  bool isBuiltinType(TypeId T) const { return T >= 0 && T <= NullTy; }

  /// The qualified name "Ns.Sub.Name" (no namespace prefix for the root).
  std::string qualifiedName(TypeId T) const;

  /// Looks up a type by qualified name; InvalidId if absent.
  TypeId findType(const std::string &QualifiedName) const;

  /// Looks up a declared (not inherited) field of \p T by name.
  FieldId findDeclaredField(TypeId T, const std::string &Name) const;

  /// Looks up a field of \p T by name, searching base classes.
  FieldId findField(TypeId T, const std::string &Name) const;

  /// All methods named \p Name declared on \p T or a base class.
  std::vector<MethodId> findMethods(TypeId T, const std::string &Name) const;

  /// All fields visible on \p T: declared plus inherited (base-class fields
  /// shadowed by a same-named derived field are excluded).
  std::vector<FieldId> visibleFields(TypeId T) const;

  /// All methods visible on \p T: declared plus inherited (an inherited
  /// method is excluded if the derived type declares one with the same name
  /// and parameter types — an override).
  std::vector<MethodId> visibleMethods(TypeId T) const;

  //===--------------------------------------------------------------------===
  // Relations
  //===--------------------------------------------------------------------===

  bool isPrimitive(TypeId T) const {
    return type(T).Kind == TypeKind::Primitive;
  }

  /// Primitive *or string*: the common-namespace ranking term ignores these
  /// (§4.1, "Primitive types, including string, are ignored").
  bool isPrimitiveLike(TypeId T) const {
    return isPrimitive(T) || T == StringTy;
  }

  bool isNumeric(TypeId T) const;

  /// True if a value of type \p From may be used where \p To is expected
  /// (identity, subclassing, interface implementation, primitive widening,
  /// boxing to Object).
  bool implicitlyConvertible(TypeId From, TypeId To) const {
    return distanceOrNone(From, To) >= 0;
  }

  /// The paper's type distance td(From, To): number of supertype steps from
  /// \p From up to \p To, or nullopt when no implicit conversion exists.
  /// Read from \p From's ancestor row, which the first query that needs it
  /// fills (see ancestors()).
  std::optional<int> typeDistance(TypeId From, TypeId To) const {
    int D = distanceOrNone(From, To);
    return D < 0 ? std::nullopt : std::optional<int>(D);
  }

  /// Distance between two operand types of a binary operator: the paper
  /// treats the operator as a method whose two parameters both have the more
  /// general type, so this is td(A, B) if defined, otherwise td(B, A),
  /// otherwise nullopt.
  std::optional<int> operandDistance(TypeId A, TypeId B) const;

  /// True if `<` / `>=` between values of types \p A and \p B type-checks:
  /// both numeric (or char), or the same enum, or convertible with the more
  /// general type flagged comparable.
  bool comparable(TypeId A, TypeId B) const;

  /// True if a value of type \p ValueTy may be assigned into a location of
  /// type \p TargetTy.
  bool assignable(TypeId TargetTy, TypeId ValueTy) const;

  /// The ancestor row of \p T: every type \p T implicitly converts to
  /// (itself included, at 0) with td to it, sorted by id. The row of
  /// `null` is just itself; its conversions to reference types follow the
  /// explicit rule in typeDistance. A base type's row is the base layer's.
  /// A query that reaches a type of this layer without a row first fills
  /// the rows of every type of the layer, in id order.
  Span<const AncestorEntry> ancestors(TypeId T) const {
    if (static_cast<size_t>(T) < NumBaseTypes)
      return Base->ancestors(T);
    size_t Row = static_cast<size_t>(T) - NumBaseTypes;
    if (Row >= NumRows)
      fillAncestorRows();
    return Span<const AncestorEntry>(EntriesV + OffsetsV[Row],
                                     OffsetsV[Row + 1] - OffsetsV[Row]);
  }

  /// Fills the ancestor row of every type of this layer that lacks one.
  /// Afterwards (absent further model mutation) typeDistance,
  /// operandDistance, implicitlyConvertible, comparable, and assignable
  /// are pure reads and safe to call from concurrent threads. Invoked by
  /// CompletionIndexes::freeze(); idempotent.
  void fillAncestorRows() const;
  bool ancestorRowsComplete() const { return NumRows == Types.size(); }

  /// This layer's ancestor CSR as flat arrays: one offset per row plus a
  /// final one (the entry count), and the row entries. Snapshot-writer
  /// access; call fillAncestorRows() first.
  Span<const uint32_t> ancestorOffsets() const {
    return Span<const uint32_t>(OffsetsV, NumRows + 1);
  }
  Span<const AncestorEntry> ancestorEntries() const {
    return Span<const AncestorEntry>(EntriesV, OffsetsV[NumRows]);
  }

  /// Installs an externally owned ancestor CSR covering every type of this
  /// (monolithic) model — the snapshot loader's zero-copy path: the arrays
  /// point into a read-only file mapping whose lifetime \p KeepAlive pins.
  /// The CSR must have been computed over the same source, which the
  /// snapshot's content hashes guarantee. Rows filled earlier (by the
  /// resolver's queries) are equal and are dropped.
  void adoptAncestorRows(const uint32_t *Offsets, const AncestorEntry *Entries,
                         std::shared_ptr<const void> KeepAlive) const;

  /// The declared immediate supertypes of \p T used by td: base class and
  /// interfaces for classes/structs, widening target (or Object) for
  /// primitives, Object for enums/interfaces without bases.
  std::vector<TypeId> immediateSupertypes(TypeId T) const;

  /// min(NamespaceInfo::MaxPrefix, number of leading segments the
  /// namespaces containing \p A and \p B share), by interned prefix ids.
  int commonNamespacePrefix(TypeId A, TypeId B) const {
    const auto &PA = nspace(type(A).Namespace).Prefix;
    const auto &PB = nspace(type(B).Namespace).Prefix;
    int K = 0;
    while (static_cast<size_t>(K) != NamespaceInfo::MaxPrefix &&
           isValidId(PA[K]) && PA[K] == PB[K])
      ++K;
    return K;
  }

  /// The number of parameters in the *call signature* of \p M: declared
  /// parameters plus one receiver slot for instance methods.
  size_t numCallParams(MethodId M) const {
    const MethodInfo &MI = method(M);
    return MI.Params.size() + (MI.IsStatic ? 0 : 1);
  }

  /// Type of call-signature parameter \p I of \p M (parameter 0 of an
  /// instance method is the receiver, typed as the owner).
  TypeId callParamType(MethodId M, size_t I) const {
    const MethodInfo &MI = method(M);
    if (!MI.IsStatic) {
      if (I == 0)
        return MI.Owner;
      return MI.Params[I - 1].Type;
    }
    return MI.Params[I].Type;
  }

private:
  /// td(From, To), or -1 when there is no implicit conversion.
  int distanceOrNone(TypeId From, TypeId To) const {
    if (From == NullTy)
      return isReferenceType(To) ? 0 : -1;
    for (const AncestorEntry &E : ancestors(From))
      if (E.Type == To)
        return E.Dist;
    return -1;
  }

  /// Mutable access to an overlay-layer (or monolithic) TypeInfo; asserts
  /// the target is not a base-layer entity.
  TypeInfo &mutableType(TypeId T) {
    assert(static_cast<size_t>(T) >= NumBaseTypes &&
           "overlay must not mutate base-layer types");
    return Types[T - NumBaseTypes];
  }

  /// The frozen base layer (null for a monolithic model) and the entity
  /// counts it held when this overlay attached. Local vectors below store
  /// only overlay-layer entities; id I lives at index I - NumBaseX.
  std::shared_ptr<const TypeSystem> Base;
  size_t NumBaseTypes = 0;
  size_t NumBaseFields = 0;
  size_t NumBaseMethods = 0;
  size_t NumBaseNamespaces = 0;

  std::vector<NamespaceInfo> Namespaces;
  std::vector<TypeInfo> Types;
  std::vector<FieldInfo> Fields;
  std::vector<MethodInfo> Methods;
  /// Name maps hold *absolute* ids, overlay-layer entities only; lookups
  /// consult the base maps first.
  std::unordered_map<std::string, NamespaceId> NamespaceByName;
  std::unordered_map<std::string, TypeId> TypeByName;
  /// The ancestor CSR of this layer's types (row I is type
  /// NumBaseTypes + I), appended in id order by fillAncestorRows(). Readers
  /// go through the views, which alias the owned vectors or an adopted
  /// snapshot mapping pinned by RowsKeepAlive; NumRows is published last.
  mutable std::vector<uint32_t> RowOffsets{0};
  mutable std::vector<AncestorEntry> RowEntries;
  mutable const uint32_t *OffsetsV = RowOffsets.data();
  mutable const AncestorEntry *EntriesV = nullptr;
  mutable size_t NumRows = 0;
  mutable std::shared_ptr<const void> RowsKeepAlive;

  TypeId ObjectTy, VoidTy, IntTy, LongTy, ShortTy, ByteTy, CharTy, FloatTy,
      DoubleTy, BoolTy, StringTy, NullTy;
};

} // namespace petal

#endif // PETAL_MODEL_TYPESYSTEM_H
