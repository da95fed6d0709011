"""Seeded benchmark inputs and the known-answer oracle.

Every input is a :class:`Case`: runtime bytecode plus the verdict set the
analyzer must report for it.  The same seed always yields byte-identical
cases, so two commits measured on one seed analyse the same contracts.

* :func:`corpus_draw` — ``generate_corpus`` contracts (~98%) with a seeded
  tail of large multi-function contracts (~2%) interleaved at even
  positions.  Tail sizes are fixed targets between 2 KiB and the EIP-170
  cap (:func:`tail_targets`), so every seed gets the same size profile and
  ``latency_p99_ms`` (which falls inside the tail) does not move with the
  seed; the seed only picks the contracts' content.
* :func:`mainnet_stream` — ``generate_mainnet``'s Zipf-duplicated deployed
  population, unchanged, for the orchestrator sweep.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.vulnerabilities import ACCESSIBLE_SELFDESTRUCT
from repro.corpus import generate_corpus, generate_mainnet
from repro.minisol import compile_source

EIP170_CAP = 24_576  # bytes of runtime code a deployed contract may hold
TAIL_MIN_BYTES = 2_048
TAIL_CLUSTER_BYTES = 9_000
TAIL_TEMPLATES = ("large_guarded", "large_open")

CORPUS_SIZE = 1_000  # contracts per corpus draw, tail included
TAIL_SHARE = 0.02
MAINNET_TOTAL = 6_000  # sweep submissions
MAINNET_UNIQUE = 600  # distinct bytecodes behind them


@dataclass(frozen=True)
class Case:
    """One contract to analyse and the verdict set it must produce."""

    index: int
    template: str
    runtime: bytes
    expected: FrozenSet[str]

    @property
    def size(self) -> int:
        return len(self.runtime)


def check_verdict(case: Case, kinds: Iterable[str]) -> Optional[str]:
    """None when ``kinds`` is exactly the expected verdict set, else a
    one-line description of the mismatch (index and template included)."""
    got = frozenset(kinds)
    if got == case.expected:
        return None
    return "verdict mismatch at #%d (%s): expected %s, got %s" % (
        case.index,
        case.template,
        sorted(case.expected),
        sorted(got),
    )


def digest(cases: Sequence[Case]) -> str:
    """sha256 over every case's bytecode and expected verdicts, in order."""
    hasher = hashlib.sha256()
    for case in cases:
        hasher.update(case.runtime)
        hasher.update(repr(sorted(case.expected)).encode())
    return hasher.hexdigest()


# ------------------------------------------------------------ large contracts

_VOTE = """
    uint256 tally%(i)d;
    function voteFor%(i)d(uint256 weight) public {
        require(weight > 0);
        uint256 adjusted = weight;
        if (adjusted > %(cap)d) { adjusted = %(cap)d; }
        tally%(i)d += adjusted;
        votes[msg.sender] += adjusted;
    }
    function tallyOf%(i)d() public returns (uint256) { return tally%(i)d; }"""

_PARAM = """
    uint256 param%(i)d;
    function setParam%(i)d(uint256 value) public {
        require(msg.sender == %(owner)s);
        param%(i)d = value;
    }
    function paramOf%(i)d() public returns (uint256) { return param%(i)d + %(cap)d; }"""

_STAKE = """
    mapping(address => uint256) stake%(i)d;
    function deposit%(i)d(uint256 amount) public {
        require(amount < %(cap)d);
        stake%(i)d[msg.sender] += amount;
    }
    function stakeOf%(i)d(address who) public returns (uint256) { return stake%(i)d[who]; }"""

_SECTIONS = (_VOTE, _PARAM, _STAKE)
_OWNER_WORDS = ("owner", "admin", "governor", "curator", "keeper")


@dataclass(frozen=True)
class LargeContract:
    """A generated large contract before it joins a draw."""

    template: str
    source: str
    name: str
    expected: FrozenSet[str]


def large_contract(rng: random.Random, sections: int, guarded: bool) -> LargeContract:
    """A governance-style contract with ``sections`` public-function groups,
    in the style of the corpus's ``large_dao``.

    The guarded variant's ``shutdown`` checks the owner before
    ``selfdestruct`` and yields no findings; the open variant lacks the
    check and yields exactly ``accessible-selfdestruct``.
    """
    owner = rng.choice(_OWNER_WORDS)
    name = "Council%d" % rng.randrange(10_000, 100_000)
    # Section kinds rotate, so every contract of a size has the same mix
    # and only names and constants vary with the seed.
    first = rng.randrange(len(_SECTIONS))
    body = "".join(
        _SECTIONS[(first + index) % len(_SECTIONS)]
        % {"i": index, "cap": rng.randrange(50, 5_000), "owner": owner}
        for index in range(sections)
    )
    check = "require(msg.sender == %s);\n        " % owner if guarded else ""
    source = """
contract %(name)s {
    mapping(address => uint256) votes;
    address %(owner)s;
    uint256 quorum;

    constructor() { %(owner)s = msg.sender; quorum = %(quorum)d; }

    function setQuorum(uint256 q) public {
        require(msg.sender == %(owner)s);
        quorum = q;
    }
    function shutdown() public {
        %(check)sselfdestruct(%(owner)s);
    }%(body)s
}
""" % {
        "name": name,
        "owner": owner,
        "quorum": rng.randrange(10, 1_000),
        "check": check,
        "body": body,
    }
    if guarded:
        return LargeContract(TAIL_TEMPLATES[0], source, name, frozenset())
    return LargeContract(
        TAIL_TEMPLATES[1], source, name, frozenset({ACCESSIBLE_SELFDESTRUCT})
    )


def _log_strata(low: float, high: float, count: int) -> List[int]:
    """Midpoints of ``count`` log-spaced strata between ``low`` and ``high``."""
    low, high = math.log(low), math.log(high)
    return [
        int(math.exp(low + (stratum + 0.5) * (high - low) / count))
        for stratum in range(count)
    ]


def tail_targets(count: int) -> List[int]:
    """Target runtime sizes for ``count`` tail contracts, ascending.

    Seven tenths of the tail share one size, :data:`TAIL_CLUSTER_BYTES`;
    the rest is spread over log-spaced strata below it (down to 2 KiB)
    and above it (up to the EIP-170 cap).  With a 2% tail, p99 of a pass
    falls on the median of the cluster, so it is the median of 14
    analyses of one size rather than the time of one analysis, which
    varies by ±15% from run to run on a shared host.
    """
    above = below = round(count * 0.15)
    cluster = count - above - below
    return (
        _log_strata(TAIL_MIN_BYTES, TAIL_CLUSTER_BYTES, below)
        + [TAIL_CLUSTER_BYTES] * cluster
        + _log_strata(TAIL_CLUSTER_BYTES, EIP170_CAP, above)
    )


# Runtime bytes of a contract with no sections, and a first guess of what
# one section adds; later compiles of a tail contract use the measured rate.
_BASE_BYTES = 450
_BYTES_PER_SECTION = 141


def sized_large_contract(
    rng: random.Random, target: int, guarded: bool
) -> Tuple[LargeContract, bytes]:
    """A large contract whose runtime is within one section of ``target``
    bytes and never above the EIP-170 cap.  Each re-draw keeps the content
    of the sections both draws share and only changes their number."""
    state = rng.getstate()

    def draw(sections: int) -> Tuple[LargeContract, bytes]:
        rng.setstate(state)
        contract = large_contract(rng, sections, guarded)
        return contract, compile_source(contract.source, contract.name).runtime

    sections = max(1, round((target - _BASE_BYTES) / _BYTES_PER_SECTION))
    for _ in range(4):
        contract, runtime = draw(sections)
        per_section = max(1.0, (len(runtime) - _BASE_BYTES) / sections)
        if abs(len(runtime) - target) <= per_section and len(runtime) <= EIP170_CAP:
            break
        sections = max(1, round((target - _BASE_BYTES) / per_section))
    while len(runtime) > EIP170_CAP and sections > 1:
        sections -= 1
        contract, runtime = draw(sections)
    if len(runtime) > EIP170_CAP:
        raise AssertionError(
            "tail contract of %d bytes exceeds the EIP-170 cap" % len(runtime)
        )
    return contract, runtime


# ----------------------------------------------------------------- workloads


def corpus_draw(
    seed: int, size: int = CORPUS_SIZE, tail_share: float = TAIL_SHARE
) -> List[Case]:
    """``size`` cases: ``generate_corpus`` contracts with a large tail of
    ``round(size * tail_share)`` contracts spread evenly through the list."""
    tail_count = round(size * tail_share)
    corpus = generate_corpus(size - tail_count, seed=seed)
    rng = random.Random("perfbench-tail-%d" % seed)
    # Variants alternate along the ascending targets, so the cluster and
    # each side of it are half guarded, half open for every seed.
    plan = [
        (target, position % 2 == 0)
        for position, target in enumerate(tail_targets(tail_count))
    ]
    rng.shuffle(plan)
    tail = [sized_large_contract(rng, target, guarded) for target, guarded in plan]

    cases: List[Case] = []
    corpus_iter = iter(corpus)
    tail_slots = {
        int((slot + 0.5) * size / tail_count): slot for slot in range(tail_count)
    }
    for index in range(size):
        slot = tail_slots.get(index)
        if slot is None:
            contract = next(corpus_iter)
            expected = frozenset(contract.labels | contract.expected_fp_kinds)
            cases.append(Case(index, contract.template, contract.runtime, expected))
        else:
            large, runtime = tail[slot]
            cases.append(Case(index, large.template, runtime, large.expected))
    return cases


@dataclass
class MainnetStream:
    """The sweep's submissions, their expected verdicts, and the manifest."""

    bytecodes: List[bytes]
    cases: List[Case]  # one per submission, index = submission position
    manifest: dict


def mainnet_stream(
    seed: int, total: int = MAINNET_TOTAL, unique: int = MAINNET_UNIQUE
) -> MainnetStream:
    """``generate_mainnet(total, unique, seed)`` as a submission stream."""
    mainnet = generate_mainnet(total, unique, seed=seed)
    cases = []
    for position, contract in enumerate(mainnet.contracts()):
        expected = frozenset(contract.labels | contract.expected_fp_kinds)
        cases.append(Case(position, contract.template, contract.runtime, expected))
    return MainnetStream(mainnet.bytecodes(), cases, dict(mainnet.manifest))
