// Package journal owns every durable-write decision of the repo.
//
// A Log is an append-only JSON-lines file: one record is one
// json.Marshal'd value plus '\n', so a record exists once its newline
// does. Appends are buffered; callers choose their durability points
// with Flush (to the OS) and Sync (to the disk). Open replays intact
// records and truncates a torn tail — an unterminated final line, or an
// undecodable line with only blanks after it — back to the last record
// boundary. Any other bad line is a *CorruptError, and the file is left
// as it was.
//
// WriteFile replaces a whole file atomically (temp file, fsync, rename,
// directory fsync): a crash leaves the old or the new file, plus at
// worst a stray ".<name>.tmp-*" beside it.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CorruptError reports a bad line at Offset of the file at Path that
// cannot be a torn tail. Err is the decode error or the fold's error.
type CorruptError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%s: corrupt record at offset %d: %v", e.Path, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Log is an open JSON-lines file positioned for appending. Callers
// serialize access.
type Log struct {
	f *os.File
	w *bufio.Writer
}

// Create starts an empty log at path, truncating any previous file, and
// fsyncs the directory so the file's name is durable.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, w: bufio.NewWriter(f)}, nil
}

// Open decodes each record of the log at path into a fresh T and hands
// it to fold, in file order; a fold error makes the line corrupt. It
// then truncates a torn tail (fsynced, so later appends never land
// after stale bytes) and returns the log positioned for appending.
func Open[T any](path string, fold func(T) error) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	good, err := replay(path, data, fold)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	if good < len(data) {
		if err := errors.Join(f.Truncate(int64(good)), f.Sync()); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Log{f: f, w: bufio.NewWriter(f)}, nil
}

// replay folds the intact records of data and returns the offset just
// past the last record boundary it keeps.
func replay[T any](path string, data []byte, fold func(T) error) (int, error) {
	good := 0
	for {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			return good, nil // an unterminated final line is a torn tail
		}
		line, next := data[good:good+nl], good+nl+1
		if len(bytes.TrimSpace(line)) > 0 {
			var rec T
			err := json.Unmarshal(line, &rec)
			if err != nil && len(bytes.TrimSpace(data[next:])) == 0 {
				return good, nil
			}
			if err == nil {
				err = fold(rec)
			}
			if err != nil {
				return 0, &CorruptError{Path: path, Offset: int64(good), Err: err}
			}
		}
		good = next
	}
}

// Append buffers one record: v's json.Marshal encoding and a newline.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.w.Write(line)
	return l.w.WriteByte('\n') // bufio errors are sticky: this reports both writes
}

// Flush hands the buffered records to the OS: they survive a process
// crash, not a machine crash.
func (l *Log) Flush() error { return l.w.Flush() }

// Sync flushes and fsyncs: every appended record survives a machine
// crash.
func (l *Log) Sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close flushes and closes the file without fsyncing it.
func (l *Log) Close() error { return errors.Join(l.w.Flush(), l.f.Close()) }

// WriteFile atomically replaces path with what write produces. An error
// before the rename leaves the previous file untouched and removes the
// temp file.
func WriteFile(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = f.Chmod(0o644)
	if err == nil {
		err = write(w)
	}
	if err == nil {
		err = errors.Join(w.Flush(), f.Sync())
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making creations and renames in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
