"""Archive client behavior against a scripted in-memory transport."""

import io
import json
import urllib.request
from urllib.error import HTTPError

import pytest

from chirpnet.audio.fetch import (
    BACKOFF_BASE_SECONDS,
    FetchConfig,
    FetchQuery,
    fetch_recordings,
    http_transport,
)
from chirpnet.errors import FetchError, FormatError, ParameterError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SleepLog:
    def __init__(self, clock):
        self.clock = clock
        self.calls = []

    def __call__(self, seconds):
        self.calls.append(seconds)
        self.clock.now += seconds


def search_page(records, num_pages=1):
    return json.dumps({"recordings": records, "numPages": num_pages}).encode()


def record(rec_id, species="wren", url=None):
    return {
        "id": rec_id,
        "en": species,
        "file": url or f"https://cdn.example/{rec_id}.wav",
    }


class ScriptedTransport:
    """Maps url substrings to responses; unmatched urls get 404."""

    def __init__(self, routes):
        self.routes = routes
        self.log = []

    def __call__(self, url):
        self.log.append(url)
        for key, response in self.routes.items():
            if key in url:
                if isinstance(response, Exception):
                    raise response
                return response
        return 404, b""


def run_fetch(tmp_path, transport, species="wren", max_results=50, config=None):
    clock = FakeClock()
    sleep = SleepLog(clock)
    query = FetchQuery(species=species, max_results=max_results, cache_dir=tmp_path / "cache")
    report = fetch_recordings(
        query, config=config, transport=transport, sleep=sleep, clock=clock
    )
    return report, sleep


class TestFetchQuery:
    def test_rejects_zero_results(self, tmp_path):
        with pytest.raises(ParameterError, match="at least 1"):
            FetchQuery(species="wren", max_results=0, cache_dir=tmp_path)


class TestFetchRecordings:
    def test_single_page_download(self, tmp_path):
        transport = ScriptedTransport(
            {
                "recordings?": (200, search_page([record("101"), record("102")])),
                "101.wav": (200, b"audio-101"),
                "102.wav": (200, b"audio-102"),
            }
        )
        report, _ = run_fetch(tmp_path, transport)
        assert len(report.rows) == 2
        assert len(report.downloaded) == 2
        assert report.cached == []
        assert (tmp_path / "cache" / "101.wav").read_bytes() == b"audio-101"
        assert report.rows[0].species == "wren"
        # one search request plus two payloads
        assert report.requests_made == 3

    def test_cache_hit_skips_download(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "101.wav").write_bytes(b"already here")
        transport = ScriptedTransport(
            {"recordings?": (200, search_page([record("101")]))}
        )
        report, _ = run_fetch(tmp_path, transport)
        assert report.downloaded == []
        assert report.cached == [str(cache / "101.wav")]
        assert (cache / "101.wav").read_bytes() == b"already here"
        assert report.requests_made == 1

    def test_max_results_cutoff(self, tmp_path):
        records = [record(str(i)) for i in range(5)]
        transport = ScriptedTransport(
            {
                "recordings?": (200, search_page(records)),
                ".wav": (200, b"x"),
            }
        )
        report, _ = run_fetch(tmp_path, transport, max_results=3)
        names = [e.path.split("/")[-1] for e in report.rows]
        assert names == ["0.wav", "1.wav", "2.wav"]

    def test_pagination_stops_at_last_page(self, tmp_path):
        pages = {
            "page=1": (200, search_page([record("1")], num_pages=2)),
            "page=2": (200, search_page([record("2")], num_pages=2)),
            ".wav": (200, b"x"),
        }
        transport = ScriptedTransport(pages)
        report, _ = run_fetch(tmp_path, transport)
        assert [e.path.split("/")[-1] for e in report.rows] == ["1.wav", "2.wav"]
        assert not any("page=3" in url for url in transport.log)

    def test_empty_page_stops(self, tmp_path):
        transport = ScriptedTransport({"recordings?": (200, search_page([], num_pages=9))})
        report, _ = run_fetch(tmp_path, transport)
        assert report.rows == []

    def test_retry_then_success(self, tmp_path):
        class FlakyTransport:
            def __init__(self):
                self.search_hits = 0

            def __call__(self, url):
                if "recordings?" in url:
                    self.search_hits += 1
                    if self.search_hits < 3:
                        return 503, b""
                    return 200, search_page([record("7")])
                return 200, b"x"

        config = FetchConfig(rate_limit_per_sec=0.0)
        report, sleep = run_fetch(tmp_path, FlakyTransport(), config=config)
        assert len(report.rows) == 1
        assert report.requests_made == 4
        # two failures produce backoffs of base and 2*base, and nothing else
        assert sleep.calls == [BACKOFF_BASE_SECONDS, 2 * BACKOFF_BASE_SECONDS]

    def test_persistent_failure_raises(self, tmp_path):
        transport = ScriptedTransport({"recordings?": (500, b"")})
        with pytest.raises(FetchError, match="after 3 attempts"):
            run_fetch(tmp_path, transport)

    def test_transport_exception_counts_as_failure(self, tmp_path):
        transport = ScriptedTransport({"recordings?": OSError("connection reset")})
        with pytest.raises(FetchError, match="connection reset"):
            run_fetch(tmp_path, transport)

    def test_malformed_json(self, tmp_path):
        transport = ScriptedTransport({"recordings?": (200, b"<html>not json</html>")})
        with pytest.raises(FormatError, match="malformed JSON"):
            run_fetch(tmp_path, transport)

    def test_record_without_id_skipped(self, tmp_path):
        records = [{"en": "wren", "file": "https://cdn.example/x.wav"}, record("9")]
        transport = ScriptedTransport(
            {"recordings?": (200, search_page(records)), ".wav": (200, b"x")}
        )
        with pytest.warns(UserWarning, match="without id or file url"):
            report, _ = run_fetch(tmp_path, transport)
        assert len(report.rows) == 1

    def test_rate_limit_spaces_requests(self, tmp_path):
        transport = ScriptedTransport(
            {
                "recordings?": (200, search_page([record("1"), record("2")])),
                ".wav": (200, b"x"),
            }
        )
        config = FetchConfig(rate_limit_per_sec=0.5)
        report, sleep = run_fetch(tmp_path, transport, config=config)
        assert report.requests_made == 3
        # instant transport means each follow-up waits the full 2 s interval
        waits = [s for s in sleep.calls if 0 < s <= 2.0]
        assert len(waits) == 2
        assert all(w == pytest.approx(2.0) for w in waits)

    def test_protocol_relative_and_rooted_urls(self, tmp_path):
        records = [
            record("1", url="//cdn.example/a.wav"),
            record("2", url="/files/b.wav"),
        ]
        transport = ScriptedTransport(
            {
                "recordings?": (200, search_page(records)),
                "https://cdn.example/a.wav": (200, b"a"),
                "https://xeno-canto.org/files/b.wav": (200, b"b"),
            }
        )
        report, _ = run_fetch(tmp_path, transport)
        assert len(report.downloaded) == 2

    def test_species_field_fallback(self, tmp_path):
        records = [{"id": "5", "file": "https://cdn.example/5.wav", "en": ""}]
        transport = ScriptedTransport(
            {"recordings?": (200, search_page(records)), ".wav": (200, b"x")}
        )
        report, _ = run_fetch(tmp_path, transport, species="marsh warbler")
        assert report.rows[0].species == "marsh warbler"


class TestFetchConfig:
    def test_from_file(self, tmp_path):
        p = tmp_path / "archive.cfg"
        p.write_text(
            "# comment\n"
            "base_url = https://api.example/v1\n"
            "rate_limit_per_sec = 2.5\n"
            "\n"
            "id_field = uid\n"
        )
        cfg = FetchConfig.from_file(p)
        assert cfg.base_url == "https://api.example/v1"
        assert cfg.rate_limit_per_sec == 2.5
        assert cfg.id_field == "uid"
        # untouched keys keep their defaults
        assert cfg.list_field == "recordings"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "archive.cfg"
        p.write_text("retries = 5\n")
        with pytest.raises(FormatError, match="unknown fetch config key"):
            FetchConfig.from_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "archive.cfg"
        p.write_text("base_url https://api.example\n")
        with pytest.raises(FormatError, match="expected key = value"):
            FetchConfig.from_file(p)


class TestHttpTransport:
    """The default transport, with urlopen replaced: no socket is opened."""

    def test_ok_returns_status_and_body(self, monkeypatch):
        class Response(io.BytesIO):
            status = 200

        opened = []

        def fake_urlopen(url, timeout):
            opened.append((url, timeout))
            return Response(b"payload")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert http_transport("https://archive.example/a") == (200, b"payload")
        assert opened == [("https://archive.example/a", 60)]

    def test_http_error_returns_its_status(self, monkeypatch):
        def fake_urlopen(url, timeout):
            raise HTTPError(url, 404, "Not Found", hdrs=None, fp=None)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert http_transport("https://archive.example/missing") == (404, b"")
