//go:build !linux

package watch

import "errors"

// notifyWatcher is unavailable off linux; Run reports the polling fallback.
type notifyWatcher struct{}

var errNoNotify = errors.New("no fs notification backend on this platform")

func newNotifyWatcher(string) (*notifyWatcher, error) {
	return nil, errNoNotify
}

func (w *notifyWatcher) Events() <-chan string { return nil }
func (w *notifyWatcher) Close() error          { return nil }
