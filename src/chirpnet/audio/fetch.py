"""Client for a paged JSON-over-HTTP recording archive.

Endpoint layout and JSON field names live in FetchConfig rather than code,
since public archive APIs drift. The transport (url -> status, body) is
injectable so tests can simulate failures without a network.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional
from urllib.parse import quote, urlsplit

from ..errors import FetchError, FormatError, ParameterError
from .manifest import ManifestEntry

Transport = Callable[[str], tuple[int, bytes]]

MAX_ATTEMPTS = 3
BACKOFF_BASE_SECONDS = 1.0


def http_transport(url: str) -> tuple[int, bytes]:
    """One GET with a 60 s timeout; an HTTP error status returns with an empty body."""
    from urllib.error import HTTPError
    from urllib.request import urlopen  # imported here: it costs start-up time

    try:
        with urlopen(url, timeout=60) as response:
            return response.status, response.read()
    except HTTPError as exc:
        return exc.code, b""


@dataclass(frozen=True)
class FetchQuery:
    species: str
    max_results: int
    cache_dir: Path

    def __post_init__(self):
        if self.max_results < 1:
            raise ParameterError("max_results must be at least 1")
        object.__setattr__(self, "cache_dir", Path(self.cache_dir))


@dataclass
class FetchConfig:
    base_url: str = "https://xeno-canto.org/api/2/recordings"
    query_template: str = "query={species}"
    page_param: str = "page"
    list_field: str = "recordings"
    pages_field: str = "numPages"
    id_field: str = "id"
    url_field: str = "file"
    species_field: str = "en"
    rate_limit_per_sec: float = 1.0

    @classmethod
    def from_file(cls, path) -> "FetchConfig":
        """Parse `key = value` lines; unknown keys are rejected."""
        cfg = cls()
        valid = {f.name for f in fields(cls)}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in valid:
                raise FormatError(f"{path}:{lineno}: unknown fetch config key {key!r}")
            if key == "rate_limit_per_sec":
                setattr(cfg, key, float(value))
            else:
                setattr(cfg, key, value)
        return cfg


@dataclass
class FetchReport:
    rows: list[ManifestEntry] = field(default_factory=list)
    downloaded: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    requests_made: int = 0


class _RateLimitedClient:
    def __init__(self, transport: Transport, rate_per_sec: float, sleep, clock):
        self.transport = transport
        self.interval = 1.0 / rate_per_sec if rate_per_sec > 0 else 0.0
        self.sleep = sleep
        self.clock = clock
        self._last: Optional[float] = None
        self.requests_made = 0

    def get(self, url: str) -> bytes:
        """Fetch with the rate limit and exponential-backoff retries."""
        last_error: Exception | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if self._last is not None and self.interval > 0:
                wait = self.interval - (self.clock() - self._last)
                if wait > 0:
                    self.sleep(wait)
            self._last = self.clock()
            self.requests_made += 1
            try:
                status, body = self.transport(url)
            except Exception as exc:  # network-level failure
                last_error = exc
                status, body = -1, b""
            if status == 200:
                return body
            if attempt < MAX_ATTEMPTS:
                self.sleep(BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)))
        detail = f"HTTP {status}" if last_error is None else repr(last_error)
        raise FetchError(f"GET {url} failed after {MAX_ATTEMPTS} attempts ({detail})")


def _download_url(raw: str, config: FetchConfig) -> str:
    if raw.startswith("//"):
        return "https:" + raw
    if raw.startswith("/"):
        parts = urlsplit(config.base_url)
        return f"{parts.scheme}://{parts.netloc}{raw}"
    return raw


def fetch_recordings(
    query: FetchQuery,
    config: FetchConfig | None = None,
    transport: Transport | None = None,
    sleep=time.sleep,
    clock=time.monotonic,
) -> FetchReport:
    """Page through the archive's search results and cache audio payloads.

    Files land at cache_dir/<recording id>.<ext>; ids already present are
    not re-downloaded. Stops after max_results rows or the final page.
    """
    config = config or FetchConfig()
    client = _RateLimitedClient(
        transport or http_transport, config.rate_limit_per_sec, sleep, clock
    )
    query.cache_dir.mkdir(parents=True, exist_ok=True)
    report = FetchReport()
    page = 1
    while len(report.rows) < query.max_results:
        url = (
            f"{config.base_url}?"
            f"{config.query_template.format(species=quote(query.species))}"
            f"&{config.page_param}={page}"
        )
        body = client.get(url)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"malformed JSON from {url}: {exc}") from exc
        recordings = payload.get(config.list_field, [])
        if not recordings:
            break
        for rec in recordings:
            if len(report.rows) >= query.max_results:
                break
            rec_id = str(rec.get(config.id_field, "")).strip()
            raw_url = str(rec.get(config.url_field, "")).strip()
            if not rec_id or not raw_url:
                warnings.warn(f"skipping archive record without id or file url: {rec!r}")
                continue
            file_url = _download_url(raw_url, config)
            ext = Path(urlsplit(file_url).path).suffix or ".wav"
            dest = query.cache_dir / f"{rec_id}{ext}"
            if dest.exists():
                report.cached.append(str(dest))
            else:
                dest.write_bytes(client.get(file_url))
                report.downloaded.append(str(dest))
            label = str(rec.get(config.species_field) or query.species)
            report.rows.append(ManifestEntry(path=str(dest), species=label, duration=None))
        total_pages = int(payload.get(config.pages_field, page))
        if page >= total_pages:
            break
        page += 1
    report.requests_made = client.requests_made
    return report
