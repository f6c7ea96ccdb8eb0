"""The dispatch record: one batch of trades, held column by column.

The settlement kernel builds one :class:`DispatchRecord` per dispatch and
hands that same object to every book -- the write-ahead journal, the
billing ledger, the broker policy and the privacy accountant -- instead
of one dict or object per row.  Each book validates it once (one
vectorized finiteness and sign check), folds its running aggregates over
the columns and keeps the record as one chunk; the per-row views it
serves (journal entries, transactions, budget entries) are built only
when someone reads them.

Labels are not stored for trades the kernel makes: a trade's label is a
pure function of its consumer, range and window, ``f"{consumer}:[{low},
{high}]"`` plus ``@window`` on a streaming release, so it is derived on
read.  Only a caller-supplied label (a ``charge`` row's, or any caller
that passes one) is kept as text.

This module depends on numpy alone, so every book can import it.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
    overload,
)

import numpy as np
import numpy.typing as npt

__all__ = [
    "KINDS",
    "RELEASE",
    "REPLAY",
    "CHARGE",
    "DispatchRecord",
    "LabelColumn",
    "ROW_FIELDS",
    "RowViews",
    "codes_of",
    "SLACK",
    "fold",
    "fold_capped",
    "group_rows",
    "label_of",
]

#: Trade kinds, by code: a fresh noised release (spends ε′ > 0), the
#: replay of an already-released answer (billed, but ε′ = 0 by
#: post-processing), and a bare ε′ charge made outside the trade path --
#: a histogram or quantile release -- which is never billed (price 0).
KINDS = ("release", "replay", "charge")
RELEASE, REPLAY, CHARGE = 0, 1, 2
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: The float columns, in record order; every one must hold finite numbers.
FLOAT_COLUMNS = ("low", "high", "alpha", "delta", "epsilon_prime", "price")

F64 = npt.NDArray[np.float64]
I64 = npt.NDArray[np.int64]
Codes = npt.NDArray[np.intp]


def fold(values: "Union[Sequence[float], F64]", total: float = 0.0) -> float:
    """``total`` plus ``values`` added one at a time, left to right.

    A plain loop of float ``+=`` (``sum`` compensates rounding from
    Python 3.12 and ``np.sum`` pairs terms up; neither is a left fold).
    For the few dozen values a dispatch charges at once it also beats
    ``np.add.accumulate``, whose result is the same.
    """
    for value in values.tolist() if isinstance(values, np.ndarray) else values:
        total += value
    return float(total)


#: Rounding slack of every capped-ε book (:func:`fold_capped`).
SLACK = 1e-12


def fold_capped(
    values: "Union[Sequence[float], F64]", total: float, capacity: float
) -> Optional[float]:
    """``fold(values, total)`` if it is at most ``capacity`` + :data:`SLACK`,
    else ``None``.

    The one capped-ε check: a charge fits a book when the left fold of
    its ε′ column onto the book's running total -- the very sum the book
    records -- stays within the cap.  Every budget book and admission
    decide with it.
    """
    after = fold(values, total)
    return after if after <= capacity + SLACK else None


def label_of(consumer: str, low: float, high: float) -> str:
    """The label the kernel gives a trade of ``consumer`` over ``[low, high]``."""
    return f"{consumer}:[{low},{high}]"


def _frozen(values: Any, dtype: "np.dtype[Any] | type") -> Any:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class DispatchRecord:
    """One batch of trades as parallel columns, in settlement order.

    ``consumer`` and ``dataset`` hold codes into the ``consumers`` and
    ``datasets`` name lists, which are distinct and in first-use order.
    The six float columns (``low`` ... ``price``, :data:`FLOAT_COLUMNS`)
    are rows of one ``floats`` block.  ``labels`` is ``None`` when every
    label is derived, or one entry per row: the caller's text, or
    ``None`` for a derived label.  ``window`` suffixes the derived label
    of every release row (a streaming window's id).  The columns are
    read-only: every book that holds the record shares them.
    """

    __slots__ = (
        "kind", "consumer", "consumers", "dataset", "datasets", "floats",
        "low", "high", "alpha", "delta", "epsilon_prime", "price",
        "store_version", "labels", "window", "_checked", "_groups",
    )

    def __init__(
        self,
        *,
        kind: Any,
        consumer: Any,
        consumers: Sequence[str],
        dataset: Any,
        datasets: Sequence[str],
        low: Any,
        high: Any,
        alpha: Any,
        delta: Any,
        epsilon_prime: Any,
        price: Any,
        store_version: Any,
        labels: "Optional[Sequence[Optional[str]]]" = None,
        window: Optional[str] = None,
    ) -> None:
        self.kind: npt.NDArray[np.uint8] = _frozen(kind, np.uint8)
        size = len(self.kind)
        self.consumer: Codes = _frozen(consumer, np.intp)
        self.consumers: List[str] = list(consumers)
        self.dataset: Codes = _frozen(dataset, np.intp)
        self.datasets: List[str] = list(datasets)
        self.floats: F64 = _frozen(
            [low, high, alpha, delta, epsilon_prime, price], np.float64
        ).reshape(len(FLOAT_COLUMNS), size)
        (self.low, self.high, self.alpha, self.delta, self.epsilon_prime,
         self.price) = self.floats
        self.store_version: I64 = _frozen(store_version, np.int64)
        self.labels: "Optional[List[Optional[str]]]" = (
            None if labels is None else list(labels)
        )
        self.window = window
        self._checked = False
        self._groups: "Dict[str, List[Tuple[int, Codes]]]" = {}
        if not (
            len(self.consumer) == len(self.dataset)
            == len(self.store_version) == size
        ) or (self.labels is not None and len(self.labels) != size):
            raise ValueError(f"the columns are not all {size} rows long")

    # ------------------------------------------------------------------ #
    # Construction from rows (callers outside the kernel)                #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        rows: "Iterable[Mapping[str, Any]]",
        defaults: "Optional[Mapping[str, Any]]" = None,
        *,
        error: Type[Exception] = ValueError,
    ) -> "DispatchRecord":
        """A record of ``rows``, each a mapping of one trade's fields.

        The fields are ``kind``, ``consumer``, ``dataset``, ``low``,
        ``high``, ``alpha``, ``delta``, ``epsilon_prime``, ``price``,
        ``store_version`` and ``label``.  Without ``defaults`` every row
        must hold exactly these; with them, a missing field takes its
        default (a ``label`` default of ``None`` means derived) and other
        keys are ignored.  A bad shape raises ``error``.
        """
        rows = list(rows)
        columns: Dict[str, List[Any]] = {name: [] for name in ROW_FIELDS}
        for row in rows:
            if defaults is None:
                if row.keys() != _ROW_FIELD_SET:
                    missing = sorted(_ROW_FIELD_SET - row.keys())
                    extra = sorted(row.keys() - _ROW_FIELD_SET)
                    raise error(
                        f"a trade record needs exactly the fields "
                        f"{list(ROW_FIELDS)}; missing {missing}, unknown {extra}"
                    )
                for name in ROW_FIELDS:
                    columns[name].append(row[name])
            else:
                for name in ROW_FIELDS:
                    columns[name].append(
                        row[name] if name in row else defaults[name]
                    )
        try:
            kinds = [_KIND_CODES[kind] for kind in columns["kind"]]
        except (KeyError, TypeError):
            bad = next(k for k in columns["kind"] if k not in _KIND_CODES)
            raise error(
                f"unknown trade kind {bad!r}; expected one of {KINDS}"
            ) from None
        consumer, consumers = codes_of(columns["consumer"])
        dataset, datasets = codes_of(columns["dataset"])
        labels = columns["label"]
        try:
            return cls(
                kind=kinds,
                consumer=consumer,
                consumers=consumers,
                dataset=dataset,
                datasets=datasets,
                low=columns["low"],
                high=columns["high"],
                alpha=columns["alpha"],
                delta=columns["delta"],
                epsilon_prime=columns["epsilon_prime"],
                price=columns["price"],
                store_version=columns["store_version"],
                labels=None if all(label is None for label in labels) else labels,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"malformed trade record: {exc}") from None

    def __len__(self) -> int:
        return len(self.kind)

    # ------------------------------------------------------------------ #
    # Validation                                                         #
    # ------------------------------------------------------------------ #
    def problem(self) -> Optional[str]:
        """Why the record may not enter the books, or ``None``.

        One vectorized pass: every float column finite, ε′ and price
        non-negative, a replay's ε′ zero and a charge's price zero.
        """
        finite = np.isfinite(self.floats).all(axis=1)
        if not finite.all():
            bad = [name for name, ok in zip(FLOAT_COLUMNS, finite) if not ok]
            return f"{', '.join(bad)} must be finite"
        if (self.floats[4:] < 0).any():
            return (
                "epsilon_prime must be non-negative"
                if (self.epsilon_prime < 0).any()
                else "price must be non-negative"
            )
        if self.kind.any():
            if int(self.kind.max()) >= len(KINDS):
                return f"unknown trade kind code {int(self.kind.max())}"
            if (self.epsilon_prime[self.kind == REPLAY] != 0.0).any():
                return "replay entries are post-processing and must carry ε′ = 0"
            if (self.price[self.kind == CHARGE] != 0.0).any():
                return "charge entries are never billed; price must be 0"
        return None

    def check(self, error: Type[Exception]) -> None:
        """Raise ``error`` unless the record is valid; checked once per record."""
        if self._checked:
            return
        problem = self.problem()
        if problem is not None:
            raise error(problem)
        self._checked = True

    # ------------------------------------------------------------------ #
    # Grouping                                                           #
    # ------------------------------------------------------------------ #
    def groups(self, column: str = "consumer") -> "List[Tuple[int, Codes]]":
        """``(code, rows)`` per distinct ``consumer`` (or ``dataset``) code,
        in first-appearance order; ``rows`` ascend.  Cached."""
        cached = self._groups.get(column)
        if cached is None:
            cached = self._groups[column] = group_rows(getattr(self, column))
        return cached

    def charge_runs(self) -> "List[Tuple[int, Codes]]":
        """``(dataset code, rows)`` per maximal run of one consumer's rows
        on one dataset among the rows that spend ε′ (every kind but a
        replay), in order.  Cached.

        The settlement kernel records each consumer's rows as one block,
        so a record of its fresh releases has its consumer groups as runs
        (read off the cached :meth:`groups`, without another pass).
        """
        cached = self._groups.get("runs")
        if cached is None and not self.kind.any() and len(self.datasets) == 1:
            groups = self.groups()
            if all(rows[-1] - rows[0] < len(rows) for _, rows in groups):
                cached = self._groups["runs"] = [(0, rows) for _, rows in groups]
        if cached is None:
            rows = np.flatnonzero(self.kind != REPLAY)
            consumer, dataset = self.consumer[rows], self.dataset[rows]
            starts = np.flatnonzero(
                (consumer[1:] != consumer[:-1]) | (dataset[1:] != dataset[:-1])
            ) + 1
            bounds = [0, *starts.tolist(), len(rows)]
            cached = self._groups["runs"] = [
                (int(dataset[start]), rows[start:end])
                for start, end in zip(bounds, bounds[1:])
                if end > start
            ]
        return cached

    def take(self, rows: Codes) -> "DispatchRecord":
        """A record of ``rows`` only, in their order; the name lists stay."""
        return DispatchRecord(
            kind=self.kind[rows],
            consumer=self.consumer[rows],
            consumers=self.consumers,
            dataset=self.dataset[rows],
            datasets=self.datasets,
            low=self.low[rows],
            high=self.high[rows],
            alpha=self.alpha[rows],
            delta=self.delta[rows],
            epsilon_prime=self.epsilon_prime[rows],
            price=self.price[rows],
            store_version=self.store_version[rows],
            labels=(
                None if self.labels is None
                else [self.labels[row] for row in rows.tolist()]
            ),
            window=self.window,
        )

    # ------------------------------------------------------------------ #
    # Reading rows back                                                  #
    # ------------------------------------------------------------------ #
    def label(self, row: int) -> str:
        """Row ``row``'s label: the caller's text, or derived."""
        if self.labels is not None:
            text = self.labels[row]
            if text is not None:
                return text
        base = label_of(
            self.consumers[int(self.consumer[row])],
            float(self.low[row]),
            float(self.high[row]),
        )
        if self.window is not None and self.kind[row] == RELEASE:
            return f"{base}@{self.window}"
        return base

    def label_list(self, rows: "Optional[Codes]" = None) -> List[str]:
        """The labels of ``rows`` (every row by default), in order."""
        picked = range(len(self)) if rows is None else rows.tolist()
        consumers = self.consumers
        codes, lows, highs, kinds = (
            self.consumer.tolist(), self.low.tolist(), self.high.tolist(),
            self.kind.tolist(),
        )
        explicit = self.labels
        suffix = None if self.window is None else f"@{self.window}"
        out: List[str] = []
        for row in picked:
            text = None if explicit is None else explicit[row]
            if text is None:
                text = f"{consumers[codes[row]]}:[{lows[row]},{highs[row]}]"
                if suffix is not None and kinds[row] == RELEASE:
                    text += suffix
            out.append(text)
        return out

    def rows(self) -> "Iterator[Tuple[Any, ...]]":
        """Every row's fields (labels derived), in :data:`ROW_FIELDS` order."""
        consumers, datasets = self.consumers, self.datasets
        return zip(
            map(KINDS.__getitem__, self.kind.tolist()),
            map(consumers.__getitem__, self.consumer.tolist()),
            map(datasets.__getitem__, self.dataset.tolist()),
            self.low.tolist(), self.high.tolist(), self.alpha.tolist(),
            self.delta.tolist(), self.epsilon_prime.tolist(),
            self.price.tolist(), self.store_version.tolist(),
            self.label_list(),
        )


#: A trade's fields, in order (a journal entry's, after its answer id).
ROW_FIELDS = (
    "kind", "consumer", "dataset", "low", "high", "alpha", "delta",
    "epsilon_prime", "price", "store_version", "label",
)
_ROW_FIELD_SET = frozenset(ROW_FIELDS)


def codes_of(names: Sequence[str]) -> Tuple[List[int], List[str]]:
    """Codes of ``names`` into their distinct values, in first-use order."""
    index: Dict[str, int] = {}
    codes = [index.setdefault(name, len(index)) for name in names]
    return codes, list(index)


def group_rows(codes: "npt.NDArray[Any]") -> "List[Tuple[int, Codes]]":
    """``(code, rows)`` per distinct value of ``codes``, in order of first
    appearance; each ``rows`` ascends."""
    rows: Dict[int, List[int]] = {}
    for row, code in enumerate(codes.tolist()):
        rows.setdefault(code, []).append(row)
    return [
        (code, np.array(positions, dtype=np.intp))
        for code, positions in rows.items()
    ]


class LabelColumn(Sequence[str]):
    """Some rows' labels of a :class:`DispatchRecord`, formatted on read.

    What the kernel hands :meth:`BudgetAccountant.charge_many` as the
    labels of a consumer group's charges: indexing, slicing and ``len``
    cost nothing; the text is built only when a label is read.
    """

    __slots__ = ("_record", "_rows")

    def __init__(self, record: DispatchRecord, rows: Codes) -> None:
        self._record = record
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    @overload
    def __getitem__(self, index: int) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> "LabelColumn": ...

    def __getitem__(self, index: "Union[int, slice]") -> "Union[str, LabelColumn]":
        if isinstance(index, slice):
            return LabelColumn(self._record, self._rows[index])
        return self._record.label(int(self._rows[index]))

    def __iter__(self) -> Iterator[str]:
        return iter(self._record.label_list(self._rows))

    def __repr__(self) -> str:
        return f"LabelColumn({list(self)!r})"


_T = TypeVar("_T")


class RowViews(Sequence[_T]):
    """A book's rows of one record, as views built on read.

    Subclasses provide ``__len__`` and ``__iter__``; indexing builds the
    views, and the sequence compares equal to a list of equal views (what
    the books returned when they stored one object per row).
    """

    __slots__ = ()

    @overload
    def __getitem__(self, index: int) -> _T: ...

    @overload
    def __getitem__(self, index: slice) -> List[_T]: ...

    def __getitem__(self, index: "Union[int, slice]") -> "Union[_T, List[_T]]":
        return list(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, RowViews)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def as_record(
    rows: "Union[DispatchRecord, Iterable[Mapping[str, Any]]]",
    build: Callable[[Iterable[Mapping[str, Any]]], DispatchRecord],
) -> DispatchRecord:
    """``rows`` if it is already a record, else ``build(rows)``."""
    return rows if isinstance(rows, DispatchRecord) else build(rows)
