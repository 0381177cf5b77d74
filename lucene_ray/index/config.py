"""Index configuration — the Ray analogue of ``IndexWriterConfig`` +
``FieldType`` (``lucene/core/src/java/org/apache/lucene/index/IndexWriterConfig.java``,
``.../document/TextField.java:27-43``, ``.../document/StringField.java:27-42``)."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from lucene_ray.analysis.tokenizer import DEFAULT_MAX_TOKEN_LENGTH

# separates field name from value in the term dictionary key space for
# non-default fields. U+001F never survives the standard tokenizer, and
# keyword values containing it are rejected at index time.
FIELD_SEP = "\x1f"
DEFAULT_FIELD = "text"
# the shared pseudo-field holding FeatureField terms ("All features may be
# stored in the same field" — core/document/FeatureField.java:126-128)
FEATURE_FIELD = "features"


def term_key(fieldname: str, term: str) -> str:
    """Term-dict key for a (field, term): the default text field keeps
    bare terms (round-1 segment layout unchanged); other fields prefix
    ``field + U+001F`` — the per-field term-dictionary role of
    ``FieldInfos`` + per-field blocktree (``core/index/FieldInfos.java``,
    ``core/codecs/perfield/PerFieldPostingsFormat.java:64-69``)."""
    if fieldname == DEFAULT_FIELD:
        return term
    return fieldname + FIELD_SEP + term


@dataclass(frozen=True)
class IndexConfig:
    """Per-field/index knobs.

    - ``text_col`` — the one tokenized field (``TextField``:
      DOCS_AND_FREQS_AND_POSITIONS when ``positions=True``); its logical
      field name is always ``"text"``.
    - ``keyword_cols`` — untokenized DOCS-only fields with norms omitted
      (``StringField.java:27-42``): url / lang style exact-match filters.
      Values index verbatim (no analyzer), term freq is 1, no positions.
    - ``extra_text_cols`` — ADDITIONAL tokenized fields (multi-field
      ``TextField`` documents, e.g. title + body). Each is analyzed with
      the same analyzer (the reference's ``CombinedFieldQuery`` likewise
      assumes one shared analyzer), terms enter the shared dictionary
      under ``field + U+001F + term`` keys, and each field keeps its own
      SmallFloat norms (``norms_<field>.bin``) + collection stats —
      the per-field ``FieldInfos``/``Terms`` role.
    - ``dv_cols`` — per-doc columns stored column-wise in the segment
      (``dv.parquet``), the ``DocValues`` role: range filters, field
      sort, faceting (``core/index/DocValuesType.java:25-51``).
    - empty ``stopwords`` matches ``StandardAnalyzer``'s default.
    """

    text_col: str = "text"
    key_col: str = "doc_id"
    stopwords: FrozenSet[str] = frozenset()
    # post-stop token-filter chain BY REGISTRY NAME (analysis/filters.py
    # resolve_filters — the TokenFilterFactory SPI role); names keep the
    # config JSON-serializable and picklable across actors
    term_filters: Tuple[str, ...] = ()
    positions: bool = True
    # offsets — store per-position character offsets beside positions
    # (the ``.pay`` stream role, ``Lucene104PostingsFormat.java:17-80``;
    # ``IndexOptions.DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS``). Enables
    # offset-based highlighting without re-analyzing stored text. Requires
    # ``positions=True``; the build takes the per-doc analyzer path (the
    # vectorized flat tokenizer doesn't carry offsets).
    offsets: bool = False
    max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH
    num_buckets: int = 1  # term-hash parts per segment (shuffle build uses >1)
    rows_per_segment: int = 1 << 20  # partition granularity for the build
    # head-term salting (shuffle build): terms with estimated df above this
    # fraction of docs get split by docid range into this many salt groups.
    hot_term_df_ratio: float = 0.10
    num_salts: int = 8
    keyword_cols: Tuple[str, ...] = ()
    extra_text_cols: Tuple[str, ...] = ()
    dv_cols: Tuple[str, ...] = ()
    # feature_cols — NUMERIC input columns indexed as FeatureField terms
    # (fork ``DOCS_AND_CUSTOM_FREQS``, ``core/index/IndexOptions.java:51-56``):
    # each column ``c`` posts one term ``features␟c`` per doc whose custom
    # freq is the FeatureField encoding of float32(value)
    # (``core/document/FeatureField.java:185-188``). No positions, no
    # norms, no field-length contribution. Null values skip the doc.
    feature_cols: Tuple[str, ...] = ()
    # pretokenized — the fork's ``TokenStreamColumn`` ingestion path
    # (``core/document/column/TokenStreamColumn.java:23-37``: caller-
    # supplied token streams fed straight to the inverter, bypassing the
    # analyzer). ``text_col`` must then be a ``list<string>`` column of
    # pre-analyzed tokens; positions are dense 0..len-1. Like the
    # reference's validation (``ColumnValidation.java:249-270``), the
    # token column is inverted-index-only: it may not double as a
    # keyword / doc-values / feature column.
    pretokenized: bool = False
    # char_filters — pre-tokenizer text transforms BY REGISTRY NAME
    # (``analysis/htmlstrip.py`` CHAR_FILTERS — the CharFilterFactory SPI
    # role, ``Analyzer.initReader`` wiring). "html_strip" lets the raw
    # ``html:binary`` column of a pages corpus be the ``text_col``.
    char_filters: Tuple[str, ...] = ()
    # synonyms — index-time SynonymGraphFilter rules in Solr syntax
    # ("a, b, c" equivalence class keeps originals; "a b => x" mapping
    # replaces). Flattened at emission (FlattenGraphFilter role); see
    # ``analysis/synonyms.py``. Non-empty forces the per-document
    # analysis path (token count grows, positions go sparse).
    synonyms: Tuple[str, ...] = ()
    # postings-format SPI (``PostingsFormat.forName`` +
    # ``PerFieldPostingsFormat`` — ``core/codecs/PostingsFormat.java:30-76``,
    # ``core/codecs/perfield/PerFieldPostingsFormat.java:64-69``):
    # the segment-wide default format NAME plus per-field overrides
    # ((field, format_name), ...). Names resolve through
    # ``codecs/spi.py``'s registry at write, merge, and read time; the
    # chosen names are recorded in segment meta so readers need no
    # config. Non-impact formats (e.g. "plain") make their fields'
    # queries run exhaustively (rank-identical; the pruned paths need
    # impacts).
    postings_format: str = "ray104"
    per_field_formats: Tuple[Tuple[str, str], ...] = ()
    # point_cols — NUMERIC/timestamp ``dv_cols`` entries that also get a
    # per-segment sorted 1-D point index (``LongPoint`` / BKD role,
    # ``core/util/bkd/BKDWriter.java``; see index/points.py): range
    # filters become two binary searches over a memmapped sorted
    # (value, docid) permutation instead of an O(maxDoc) column scan.
    point_cols: Tuple[str, ...] = ()
    # geo_cols — 2-D geo-point fields (the ``LatLonPoint`` role,
    # ``core/document/LatLonPoint.java``): ((field, lat_col, lon_col),
    # ...) over float64-degree ``dv_cols`` entries. Each gets a
    # per-segment morton-sorted sidecar + block min-max directory
    # (index/geo.py build_geo_files — the 2-D BKD write role), rebuilt
    # through merges, queried via GeoBoxQuery / GeoDistanceQuery.
    geo_cols: Tuple[Tuple[str, str, str], ...] = ()
    # range_cols — interval fields (the ``IntRange``/``LongRange`` role,
    # ``core/document/IntRange.java``): ((field, lo_col, hi_col), ...)
    # over integer ``dv_cols`` entries. Per-segment lo-sorted sidecar +
    # hi min-max directory (index/ranges.py), queried via
    # RangeFieldQuery relations (``RangeFieldQuery.java:60-114``).
    range_cols: Tuple[Tuple[str, str, str], ...] = ()
    # vector_col — a ``list<float>`` column stored IN the segment as
    # float32 vectors + a deterministic HNSW graph
    # (``KnnFloatVectorField`` + ``Lucene99HnswVectorsFormat`` role):
    # ``vectors.hnsw.npz`` beside postings, rebuilt at merge, searched
    # via ``search.knn_index.knn_search_index`` with live-doc masking.
    vector_col: Optional[str] = None
    # vector_encoding — ``VectorEncoding`` role
    # (``core/index/VectorEncoding.java``): "float32" stores float
    # vectors + a deterministic HNSW graph (``KnnFloatVectorField``);
    # "byte" accepts a ``list<int8>`` vector_col and stores the signed
    # bytes verbatim in a flat per-segment sidecar
    # (``core/document/KnnByteVectorField.java`` + the
    # ``Lucene99FlatVectorsFormat`` role), scored by the raw integer
    # dot product (``VectorUtil.dotProductScore``: 0.5 + dot/(dim·2^15))
    # via exact per-segment scans.
    vector_encoding: str = "float32"
    # index sort (``IndexWriterConfig.setIndexSort`` / ``Sorter.java``):
    # ("field", "asc"|"desc") — docids within every segment follow this
    # NUMERIC doc-values field, at build (rows sorted pre-inversion) and
    # through merges (merge-sort doc remap). Enables early-terminating
    # ``search_sorted`` when the query sort matches. The field must be in
    # ``dv_cols``.
    index_sort: Optional[Tuple[str, str]] = None
    # payloads — per-position payload bytes (the payload half of the
    # ``.pay`` stream, ``Lucene104PostingsFormat.java:17-80``;
    # ``core/analysis/tokenattributes/PayloadAttribute.java``). Supplied
    # through the pretokenized ``TokenStreamColumn`` path as an aligned
    # ``payload_col`` (``list<binary>``, one entry per token) — the
    # columnar analogue of ``DelimitedPayloadTokenFilter`` output.
    # Requires ``pretokenized`` + ``positions``.
    payloads: bool = False
    payload_col: Optional[str] = None
    # store_term_vectors — per-doc (term, freq) row store for the default
    # text field (the ``TermVectorsFormat`` role,
    # ``core/codecs/lucene90/Lucene90TermVectorsFormat.java``): written
    # at flush from the already-inverted batch (no re-analysis), carried
    # through merges with docid rebase, read back via
    # ``SegmentReader.term_vector`` / ``IndexSearcher.term_vector``.
    store_term_vectors: bool = False

    def __post_init__(self):
        if self.pretokenized and (
            self.text_col in self.keyword_cols
            or self.text_col in self.dv_cols
            or self.text_col in self.feature_cols
        ):
            # ColumnValidation.validateTokenStreamColumn
            # (``ColumnValidation.java:249-270``): a token-stream column
            # is inverted-index-only
            raise ValueError(
                f"pretokenized column {self.text_col!r} is inverted-index-"
                "only; it cannot also be a keyword/dv/feature column"
            )
        if self.payloads:
            if not (self.pretokenized and self.positions):
                raise ValueError(
                    "payloads require pretokenized=True and positions=True "
                    "(caller-supplied token streams carry the payload column)"
                )
            if not self.payload_col:
                raise ValueError("payloads=True requires payload_col")
            if self.keyword_cols or self.extra_text_cols or self.feature_cols:
                raise ValueError(
                    "payloads currently cover the default text field only "
                    "(no keyword/extra-text/feature fields in the same index)"
                )
        missing = set(self.point_cols) - set(self.dv_cols)
        if missing:
            # points are a sidecar over the doc-values column store
            raise ValueError(
                f"point_cols must be a subset of dv_cols; missing {sorted(missing)}"
            )
        geo_missing = {
            c for _, la, lo in self.geo_cols for c in (la, lo)
        } - set(self.dv_cols)
        if geo_missing:
            raise ValueError(
                f"geo_cols lat/lon columns must be in dv_cols; missing "
                f"{sorted(geo_missing)}"
            )
        rng_missing = {
            c for _, lo, hi in self.range_cols for c in (lo, hi)
        } - set(self.dv_cols)
        if rng_missing:
            raise ValueError(
                f"range_cols lo/hi columns must be in dv_cols; missing "
                f"{sorted(rng_missing)}"
            )
        if self.vector_encoding not in ("float32", "byte"):
            raise ValueError(
                f"vector_encoding must be float32|byte, got "
                f"{self.vector_encoding!r}"
            )

    def term_bucket(self, term: str) -> int:
        """Stable cross-process term→bucket routing (crc32, NOT python
        ``hash`` which is per-process seeded)."""
        return zlib.crc32(term.encode("utf-8")) % self.num_buckets

    def format_name_for_field(self, fieldname: str) -> str:
        """PerFieldPostingsFormat.getPostingsFormatForField
        (``PerFieldPostingsFormat.java:64-69``)."""
        for f, name in self.per_field_formats:
            if f == fieldname:
                return name
        return self.postings_format

    def format_names_map(self) -> Optional[dict]:
        """→ the ``postings_formats`` dict recorded in segment meta
        ({"__default__": name, field: name, ...}), or None when every
        field uses the default codec (back-compat: absent key ==
        all-ray104 segment)."""
        if self.postings_format == "ray104" and not self.per_field_formats:
            return None
        m = {"__default__": self.postings_format}
        m.update({f: n for f, n in self.per_field_formats})
        return m

    def to_json(self) -> dict:
        return {
            "text_col": self.text_col,
            "key_col": self.key_col,
            "stopwords": sorted(self.stopwords),
            "term_filters": list(self.term_filters),
            "char_filters": list(self.char_filters),
            "synonyms": list(self.synonyms),
            "positions": self.positions,
            "offsets": self.offsets,
            "max_token_length": self.max_token_length,
            "num_buckets": self.num_buckets,
            "rows_per_segment": self.rows_per_segment,
            "hot_term_df_ratio": self.hot_term_df_ratio,
            "num_salts": self.num_salts,
            "keyword_cols": list(self.keyword_cols),
            "extra_text_cols": list(self.extra_text_cols),
            "dv_cols": list(self.dv_cols),
            "point_cols": list(self.point_cols),
            "geo_cols": [list(g) for g in self.geo_cols],
            "range_cols": [list(r) for r in self.range_cols],
            "vector_col": self.vector_col,
            "vector_encoding": self.vector_encoding,
            "feature_cols": list(self.feature_cols),
            "pretokenized": self.pretokenized,
            "payloads": self.payloads,
            "payload_col": self.payload_col,
            "postings_format": self.postings_format,
            "per_field_formats": [list(p) for p in self.per_field_formats],
            "index_sort": list(self.index_sort) if self.index_sort else None,
            "store_term_vectors": self.store_term_vectors,
        }

    @staticmethod
    def from_json(d: dict) -> "IndexConfig":
        return IndexConfig(
            text_col=d["text_col"],
            key_col=d["key_col"],
            stopwords=frozenset(d["stopwords"]),
            term_filters=tuple(d.get("term_filters", ())),
            char_filters=tuple(d.get("char_filters", ())),
            synonyms=tuple(d.get("synonyms", ())),
            positions=d["positions"],
            offsets=d.get("offsets", False),
            max_token_length=d["max_token_length"],
            num_buckets=d["num_buckets"],
            rows_per_segment=d["rows_per_segment"],
            hot_term_df_ratio=d.get("hot_term_df_ratio", 0.10),
            num_salts=d.get("num_salts", 8),
            keyword_cols=tuple(d.get("keyword_cols", ())),
            extra_text_cols=tuple(d.get("extra_text_cols", ())),
            dv_cols=tuple(d.get("dv_cols", ())),
            point_cols=tuple(d.get("point_cols", ())),
            geo_cols=tuple(tuple(g) for g in d.get("geo_cols", ())),
            range_cols=tuple(tuple(r) for r in d.get("range_cols", ())),
            vector_col=d.get("vector_col"),
            vector_encoding=d.get("vector_encoding", "float32"),
            feature_cols=tuple(d.get("feature_cols", ())),
            pretokenized=d.get("pretokenized", False),
            payloads=d.get("payloads", False),
            payload_col=d.get("payload_col"),
            postings_format=d.get("postings_format", "ray104"),
            per_field_formats=tuple(
                tuple(p) for p in d.get("per_field_formats", ())
            ),
            index_sort=(
                tuple(d["index_sort"]) if d.get("index_sort") else None
            ),
            store_term_vectors=d.get("store_term_vectors", False),
        )
